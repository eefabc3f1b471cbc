(* The hot-path performance suite: microbenchmarks of the two structures
   the scheduler/FIB overhaul replaced (event-queue churn, LPM lookup)
   plus a macro end-to-end forwarding replay of the §5.1 DETER
   experiment, written to BENCH_PERF.json in the stable vini.perf/1
   schema.

   CI gates on the same-run speedup ratios (new implementation vs the
   retained old one, measured back-to-back in this process), not on
   absolute ns/op: a ratio cancels out host speed, so the committed
   baseline transfers across runner generations.  Absolute numbers are
   still recorded for the trajectory.  Methodology and schema are
   documented in PERFORMANCE.md.

   Environment knobs:
     VINI_PERF_OUT   output path (default BENCH_PERF.json)
     VINI_PERF_FAST  set to shrink op counts ~8x (smoke runs) *)

module Export = Vini_measure.Export
module Heap = Vini_std.Heap
module Rng = Vini_std.Rng
module Fib = Vini_click.Fib
module Fib_reference = Vini_click.Fib_reference
module Addr = Vini_net.Addr
module Prefix = Vini_net.Prefix

let fast = Sys.getenv_opt "VINI_PERF_FAST" <> None
let scale n = if fast then max 1 (n / 8) else n

type bench = { name : string; ops : int; ns_per_op : float }

(* Best-of-trials CPU time: the minimum is the least-disturbed run, the
   standard estimator for throughput microbenchmarks. *)
let bench ~name ~ops ?(trials = 3) f =
  let best = ref infinity in
  for _ = 1 to trials do
    let t0 = Sys.time () in
    f ();
    let dt = Sys.time () -. t0 in
    if dt < !best then best := dt
  done;
  { name; ops; ns_per_op = !best *. 1e9 /. float_of_int ops }

(* ---- Scheduler churn (hold model) ------------------------------------- *)

(* Steady state of [sched_pending] events; every op pops the earliest and
   schedules a replacement a random increment later — the classic "hold"
   workload a DES event queue lives under.  Increments are uniform in
   [0, 2 ms): tens of thousands of pending timers spread over
   milliseconds, the regime the engine actually runs in (timeouts, link
   serialisation, sampling ticks).  Both sides consume the same seeded
   increment stream and both are stable on ties, so they do identical
   work in identical order. *)

let sched_pending = 20_000
let sched_ops = scale 1_000_000
let sched_inc = 2_000_000

let churn_heap () =
  let rng = Rng.create 42 in
  let cmp (k1, s1) (k2, s2) =
    match Int64.compare k1 k2 with 0 -> Int.compare s1 s2 | c -> c
  in
  let h = Heap.create ~cmp in
  let seq = ref 0 in
  let push key =
    incr seq;
    Heap.push h (key, !seq)
  in
  for _ = 1 to sched_pending do
    push (Int64.of_int (Rng.int rng sched_inc))
  done;
  for _ = 1 to sched_ops do
    match Heap.pop h with
    | None -> assert false
    | Some (k, _) ->
        push (Int64.add k (Int64.of_int (Rng.int rng sched_inc)))
  done

(* The queue the engine actually runs on ([Vini_std.Eventq], a hole-based
   binary heap with O(1) [min_key] for the inline fast path); insertion
   order is its tie-break, matching the seeded stream here. *)
let churn_eventq () =
  let rng = Rng.create 42 in
  let q = Vini_std.Eventq.create ~dummy:0 () in
  for _ = 1 to sched_pending do
    let k = Rng.int rng sched_inc in
    Vini_std.Eventq.push q ~key:k k
  done;
  for _ = 1 to sched_ops do
    match Vini_std.Eventq.pop q with
    | None -> assert false
    | Some k ->
        let k' = k + Rng.int rng sched_inc in
        Vini_std.Eventq.push q ~key:k' k'
  done

(* ---- Timer re-arm ----------------------------------------------------- *)

(* The TCP retransmission-timer pattern: one deadline pushed back on
   every ack while [sched_pending] other timers wait beyond it.  The old
   idiom cancels the armed event and schedules a fresh one — a queue
   push per re-arm, and dead entries for the compaction sweep to clear;
   [Engine.Timer.arm] records the later deadline in place.  Both sides
   build the same engine and move the deadline 1 ns later per op. *)

let rearm_ops = scale 1_000_000

let rearm ~timer () =
  let module Engine = Vini_sim.Engine in
  let module Time = Vini_sim.Time in
  let engine = Engine.create ~seed:5 () in
  for _ = 1 to sched_pending do
    ignore (Engine.at engine (Time.sec 1_000_000) ignore)
  done;
  let deadline i = Time.add (Time.ms 200) (Time.ns i) in
  if timer then begin
    let tm = Engine.Timer.create engine in
    for i = 0 to rearm_ops do
      Engine.Timer.arm_after tm (deadline i)
    done
  end
  else begin
    let h = ref (Engine.after engine (deadline 0) ignore) in
    for i = 1 to rearm_ops do
      Engine.cancel !h;
      h := Engine.after engine (deadline i) ignore
    done
  end

(* ---- LPM lookup ------------------------------------------------------- *)

(* An Abilene-scale-and-then-some table (2k prefixes, /8../28) probed two
   ways.  The flow trace is §5.1's forwarding workload: destinations come
   from a small set of concurrent flows, so the 256-slot flow cache holds
   the working set.  The uniform trace is the adversarial counterpoint —
   every probe a fresh address, the cache nearly useless — isolating the
   path-compressed trie against the one-bit-per-node original. *)

let lpm_entries = 2_048
let lpm_probes = 65_536
let lpm_passes = scale 64

let rand_addr rng =
  let hi = Rng.int rng 0x10000 in
  let lo = Rng.int rng 0x10000 in
  Addr.of_int ((hi lsl 16) lor lo)

let lpm_table rng =
  Array.init lpm_entries (fun _ ->
      let a = rand_addr rng in
      let len = 8 + Rng.int rng 21 in
      (Prefix.make a len, a))

let flow_probes rng =
  let flows = Array.init 64 (fun _ -> rand_addr rng) in
  Array.init lpm_probes (fun _ -> flows.(Rng.int rng (Array.length flows)))

let uniform_probes rng = Array.init lpm_probes (fun _ -> rand_addr rng)

let lookup_loop lookup fib probes () =
  let n = Array.length probes in
  for _ = 1 to lpm_passes do
    for i = 0 to n - 1 do
      ignore (lookup fib (Array.unsafe_get probes i))
    done
  done

(* ---- Embedding solvers: 100-slice arrival ----------------------------- *)

(* The admission-control workload end to end: 100 six-node ring slices
   arrive one by one at a fresh Abilene substrate (4 reference cores per
   site, so the tail of the sequence is rejected) and each is solved
   and, when feasible, committed.  Timed per slice decision for both
   solvers — the online solver pays exponential congestion pricing per
   candidate, greedy a best-fit scan.  There is no old/new pair here
   (the two algorithms trade placement quality against solve time), so
   both are recorded, not gated. *)

let embed_slices = 100
let embed_passes = scale 16

let embed_arrival algo () =
  let module S = Vini_embed.Substrate in
  let module Em = Vini_embed.Embed in
  let module Rq = Vini_embed.Request in
  let phys = Vini_repro.Abilene.topology () in
  let vtopo = Vini_repro.Migration.virtual_ring 6 in
  for _ = 1 to embed_passes do
    let sub = S.of_graph ~node_capacity:(fun _ -> 4.0) phys in
    for i = 0 to embed_slices - 1 do
      let req =
        Rq.make ~name:"arrival"
          ~cpu:(fun _ -> 0.25)
          ~bw:(fun _ -> 5e7)
          ~algo ~seed:i ()
      in
      ignore (Em.admit sub ~vtopo req)
    done
  done

(* ---- Internet-scale scenarios (DESIGN.md §17) -------------------------- *)

(* Informational rows, never gated: seeded generation of the reference
   200-PoP backbone, the lazy workload stream drained at depth, and both
   embedding solvers admitting 100 slice arrivals against that generated
   substrate.  The online row prices each candidate host from one
   heap-based Dijkstra per placed virtual neighbour (DESIGN.md §12); the
   greedy row is the baseline it is read against. *)

let scen_spec =
  { Vini_scenario.Generate.kind = Vini_scenario.Generate.backbone 200;
    seed = 42 }

let scen_gen_passes = scale 40
let scen_flows = scale 200_000

let scen_generate () =
  for _ = 1 to scen_gen_passes do
    ignore (Vini_scenario.Generate.generate scen_spec)
  done

let scen_workload () =
  let module W = Vini_scenario.Workload in
  let stream =
    W.create (W.default ~users:1_000_000 ~seed:7) ~nodes:200
  in
  let acc = ref 0 in
  for _ = 1 to scen_flows do
    acc := !acc + (W.next stream).W.wire_bytes
  done;
  ignore !acc

let scen_embed_slices = 100
let scen_embed_passes = scale 4

let scen_embed algo () =
  let module S = Vini_embed.Substrate in
  let module Em = Vini_embed.Embed in
  let module Rq = Vini_embed.Request in
  let phys = Vini_scenario.Generate.generate scen_spec in
  let vtopo = Vini_repro.Migration.virtual_ring 6 in
  for _ = 1 to scen_embed_passes do
    let sub = S.of_graph ~node_capacity:(fun _ -> 4.0) phys in
    for i = 0 to scen_embed_slices - 1 do
      let req =
        Rq.make ~name:"arrival"
          ~cpu:(fun _ -> 0.25)
          ~bw:(fun _ -> 5e7)
          ~algo ~seed:i ()
      in
      ignore (Em.admit sub ~vtopo req)
    done
  done

(* The hybrid campaign's two substrate-wide costs on the same backbone,
   informational like the rows above.  [scenario.reroute200] is one
   crash/reboot pair of a PoP: two all-pairs route rebuilds, each one
   Dijkstra per source plus the next-hop and forwarding tables.
   [scenario.fluid_tick200] is one 100 ms fold of the 1M-user workload at
   hybrid fidelity: pull the due flows, walk each one's path through the
   next-hop table, drain and price all 2 x links directed queues. *)

let scen_reroutes = scale 10
let scen_ticks = scale 400

let scen_underlay () =
  let engine = Vini_sim.Engine.create ~seed:42 () in
  let graph = Vini_scenario.Generate.generate scen_spec in
  let under =
    Vini_phys.Underlay.create ~engine
      ~rng:(Rng.split (Vini_sim.Engine.rng engine))
      ~graph ()
  in
  (engine, under)

let scen_reroute_loop under () =
  for _ = 1 to scen_reroutes do
    Vini_phys.Underlay.set_node_state under 0 false;
    Vini_phys.Underlay.set_node_state under 0 true
  done

let scen_fluid_setup () =
  let module F = Vini_scenario.Fluid in
  let engine, under = scen_underlay () in
  let cfg =
    {
      F.fidelity = F.Hybrid;
      tick = F.default_tick;
      workload = Vini_scenario.Workload.default ~users:1_000_000 ~seed:7;
    }
  in
  ignore (F.install ~under cfg);
  (* Past the first seconds, so queues and the stream are warm. *)
  Vini_sim.Engine.run ~until:(Vini_sim.Time.sec 5) engine;
  engine

let scen_fluid_loop engine () =
  let module Engine = Vini_sim.Engine in
  for _ = 1 to scen_ticks do
    Engine.run ~until:(Engine.now engine + Vini_scenario.Fluid.default_tick) engine
  done

(* ---- Live-migration cutover ------------------------------------------- *)

(* Cost of one complete make-before-break cycle — pre-clone,
   double-provision, atomic flip, 2 s drain, retire — measured by
   ping-ponging a virtual node between two spare Abilene machines on a
   pre-warmed slice.  Informational (no old/new pair: the alternative is
   crash-driven re-embedding, which buys different semantics, not the
   same work done faster), so it is recorded but never gated. *)

let migrate_cycles = scale 8

let migrate_cutover_setup () =
  let module Engine = Vini_sim.Engine in
  let module Time = Vini_sim.Time in
  let module Iias = Vini_overlay.Iias in
  let g = Vini_rcc.Rcc.abilene () in
  let engine = Engine.create ~seed:4242 () in
  let profile _ =
    Vini_phys.Underlay.planetlab_profile ~speed_ghz:2.0
  in
  let vini = Vini_core.Vini.create ~engine ~graph:g ~profile () in
  let req =
    Vini_embed.Request.make ~name:"cutover"
      ~cpu:(fun _ -> 0.25)
      ~seed:4242 ()
  in
  let spec =
    Vini_core.Experiment.make ~name:"cutover"
      ~slice:(Vini_phys.Slice.pl_vini "cutover")
      ~vtopo:(Vini_repro.Migration.virtual_ring 6)
      ~placement:(Vini_core.Experiment.Auto req)
      ()
  in
  let inst = Vini_core.Vini.deploy vini spec in
  Vini_core.Vini.start inst;
  Engine.run ~until:(Time.sec 30) engine;
  let emb = Iias.current_embedding (Vini_core.Vini.iias inst) in
  let spares =
    List.filter
      (fun p -> not (Array.exists (( = ) p) emb))
      (List.init (Vini_topo.Graph.node_count g) Fun.id)
  in
  match spares with
  | a :: b :: _ -> (engine, inst, a, b)
  | _ -> failwith "migrate_cutover: fewer than two spare machines"

let migrate_cutover_loop (engine, inst, spare_a, spare_b) () =
  let module Engine = Vini_sim.Engine in
  let module Time = Vini_sim.Time in
  let iias = Vini_core.Vini.iias inst in
  for _ = 1 to migrate_cycles do
    let target =
      if Vini_overlay.Iias.current_pnode iias 0 = spare_a then spare_b
      else spare_a
    in
    (match
       Vini_core.Vini.migrate ~target ~drain:(Time.sec 2) inst ~vnode:0
     with
    | Ok true -> ()
    | Ok false | Error _ -> failwith "migrate_cutover: move refused");
    Engine.run
      ~until:(Time.add (Engine.now engine) (Time.sec 3))
      engine
  done

(* ---- Batched data plane (Snabb-style breaths) ------------------------- *)

(* The tentpole pair: the same pool-sourced packet stream through the same
   click chain (failure injection -> FIB lookup -> recycling sink), driven
   two ways.  The per-packet side schedules one engine event per forwarded
   packet — the classic schedule every element ran under before batching.
   The breath side schedules one engine event per up-to-64-packet burst
   ([Ring.pop_into] -> [Element.push_batch]), with FIB lookups coalesced
   through a last-destination memo guarded by the table's generation
   counter.  Both sides forward the identical packets in the identical
   order (same pool, same ring discipline, same element logic), so the
   ratio isolates exactly what batching removes: per-packet event-queue
   churn, dispatch, and cache-cold element entry.  Gated >= 5x in CI. *)

let dp_packets = scale 2_000_000
let dp_burst = 64
let dp_pool = 256

let dp_chain pool fib =
  let module Element = Vini_click.Element in
  let module Batch = Vini_click.Batch in
  let sink =
    Element.make_batch "sink"
      ~single:(fun pkt -> Vini_net.Pool.recycle pool pkt)
      ~batch:(fun b ->
        for i = 0 to Batch.length b - 1 do
          Vini_net.Pool.recycle pool (Batch.unsafe_get b i)
        done)
  in
  let route =
    (* FIB stage: per packet on the single path; memo-coalesced per burst
       on the batch path, revalidated against [Fib.generation]. *)
    Element.make_batch "route"
      ~single:(fun pkt ->
        ignore (Fib.lookup fib pkt.Vini_net.Packet.dst);
        Element.push sink pkt)
      ~batch:(fun b ->
        let memo_gen = ref (-1) and memo_dst = ref Addr.any in
        for i = 0 to Batch.length b - 1 do
          let pkt = Batch.unsafe_get b i in
          let dst = pkt.Vini_net.Packet.dst in
          if
            not
              (!memo_gen = Fib.generation fib && Addr.equal dst !memo_dst)
          then begin
            ignore (Fib.lookup fib dst);
            memo_gen := Fib.generation fib;
            memo_dst := dst
          end
        done;
        Element.push_batch sink b)
  in
  let faulty =
    Vini_click.Faulty.create ~rng:(Rng.create 99) ~out:route "dp"
  in
  Vini_click.Faulty.element faulty

let dp_run ~batched () =
  let module Engine = Vini_sim.Engine in
  let module Time = Vini_sim.Time in
  let module Pool = Vini_net.Pool in
  let module Ring = Vini_click.Ring in
  let module Batch = Vini_click.Batch in
  let module Element = Vini_click.Element in
  let dsts =
    (* A few concurrent flows, like the §5.1 replay: bursts hold runs of
       the same destination, which is what lookup coalescing exploits. *)
    Array.init 4 (fun i -> Addr.of_string (Printf.sprintf "10.9.%d.1" i))
  in
  let pool =
    Pool.create ~capacity:dp_pool
      ~mint:(fun i ->
        Vini_net.Packet.udp ~src:(Addr.of_string "10.8.0.1")
          ~dst:dsts.(i * 7 / dp_pool mod 4)
          ~sport:1000 ~dport:2000 (Vini_net.Packet.Bytes_ 512))
      ()
  in
  let fib = Fib.create () in
  Array.iter (fun d -> Fib.add fib (Prefix.make d 24) d) dsts;
  Fib.add fib Prefix.default_route Addr.any;
  let chain = dp_chain pool fib in
  let ring = Ring.create ~capacity:dp_pool in
  let burst = Batch.create ~capacity:dp_burst in
  let refill () =
    let go = ref true in
    while !go && Pool.available pool > 0 do
      let p = Pool.take pool in
      if not (Ring.push ring p) then begin
        Pool.recycle pool p;
        go := false
      end
    done
  in
  let engine = Engine.create ~seed:5 () in
  (* The engine runs under realistic pressure: the replay keeps tens of
     thousands of timers pending (TCP timeouts, link serialisation
     completions, sampling ticks), so every per-packet event must pay the
     real sift depth, not a single-element heap's.  These background
     timers sit beyond the run horizon and never fire. *)
  let horizon = Time.sec 1_000_000 in
  for _ = 1 to sched_pending do
    ignore (Engine.at engine (Time.add horizon (Time.sec 1)) ignore)
  done;
  let sent = ref 0 in
  let dt = Time.us 10 in
  let rec ev () =
    refill ();
    if batched then begin
      Batch.clear burst;
      let n = Ring.pop_into ring burst ~max:dp_burst in
      if n > 0 then Element.push_batch chain burst;
      sent := !sent + n
    end
    else begin
      (match Ring.pop ring with
      | Some p ->
          Element.push chain p;
          incr sent
      | None -> ());
      ()
    end;
    if !sent < dp_packets then ignore (Engine.after engine dt ev)
  in
  ignore (Engine.after engine dt ev);
  Engine.run ~until:horizon engine;
  assert (!sent >= dp_packets)

(* ---- Macro: §5.1 forwarding replay ------------------------------------ *)

(* The Table 2 IIAS row end to end — iperf TCP across the 3-node DETER
   chain with user-space Click forwarding — timed as CPU seconds per
   simulated second.  No old/new pair exists at this level (the whole
   point of the overhaul is that both hot paths changed underneath it),
   so this bench is recorded, not gated. *)

let macro () =
  let duration_s = if fast then 1 else 2 in
  let t0 = Sys.time () in
  let r = Vini_repro.Deter.iias_tcp ~runs:1 ~duration_s () in
  let cpu = Sys.time () -. t0 in
  ( {
      name = "e2e.iias_tcp_replay";
      ops = duration_s;
      ns_per_op = cpu *. 1e9 /. float_of_int duration_s;
    },
    r.Vini_repro.Deter.mbps_mean )

(* ---- Spans overhead: the flight recorder on the e2e replay ------------ *)

(* Three more replays of the same workload: two with the recorder absent
   (their ratio, [spans_disabled_path], isolates run-to-run noise on the
   disabled path — every packet-path site pays exactly one load+test — and
   is gated near 1.0 in CI), one with the recorder installed and the span
   category enabled ([spans_enabled_cost], recorded but not gated: full
   recording is a debugging mode, not the default). *)

let spans_replay ~spans ~duration_s =
  (* Start every replay from a compacted heap: the pairwise ratios must
     not see the previous replay's allocator state. *)
  Gc.compact ();
  if spans then begin
    let trace =
      Vini_sim.Trace.create ~capacity:64
        ~categories:[ Vini_sim.Trace.Category.Span ] ()
    in
    Vini_sim.Trace.install trace;
    Vini_sim.Span.install (Vini_sim.Span.create ~capacity:65_536 ())
  end;
  let t0 = Sys.time () in
  ignore (Vini_repro.Deter.iias_tcp ~runs:1 ~duration_s ());
  let cpu = Sys.time () -. t0 in
  if spans then begin
    Vini_sim.Span.uninstall ();
    Vini_sim.Trace.uninstall ()
  end;
  cpu

let spans_benches () =
  let duration_s = if fast then 1 else 2 in
  let mk name cpu =
    {
      name;
      ops = duration_s;
      ns_per_op = cpu *. 1e9 /. float_of_int duration_s;
    }
  in
  (* The disabled pair alternates its trials (a, b, a, b, ...) and takes
     the per-side minimum: the gated ratio is tight (2%), and alternation
     makes monotonic drift (thermal, page cache) hit both sides equally
     instead of landing on whichever side happened to run last. *)
  let trials = if fast then 1 else 3 in
  let off_a = ref infinity and off_b = ref infinity in
  for _ = 1 to trials do
    off_a := Float.min !off_a (spans_replay ~spans:false ~duration_s);
    off_b := Float.min !off_b (spans_replay ~spans:false ~duration_s)
  done;
  let on =
    let once () = spans_replay ~spans:true ~duration_s in
    if fast then once () else Float.min (once ()) (once ())
  in
  ( mk "e2e.spans_off_a" !off_a,
    mk "e2e.spans_on" on,
    mk "e2e.spans_off_b" !off_b )

(* ---- Profiler overhead: the runtime self-profiler on the e2e replay --- *)

(* Same trio shape as the spans gate, for [Vini_sim.Profile]: two replays
   with no profile installed (ratio [profiler_disabled_path], gated >=
   0.98 in CI — every instrumented site pays exactly one load + test),
   one with a profile installed ([profiler_enabled_cost], recorded but
   not gated: self-observation is an opt-in mode). *)

let profiler_replay ~profiled ~duration_s =
  Gc.compact ();
  if profiled then Vini_sim.Profile.install (Vini_sim.Profile.create ());
  let t0 = Sys.time () in
  ignore (Vini_repro.Deter.iias_tcp ~runs:1 ~duration_s ());
  let cpu = Sys.time () -. t0 in
  if profiled then Vini_sim.Profile.uninstall ();
  cpu

let profiler_benches () =
  let duration_s = if fast then 1 else 2 in
  let mk name cpu =
    {
      name;
      ops = duration_s;
      ns_per_op = cpu *. 1e9 /. float_of_int duration_s;
    }
  in
  (* The gated pair alternates its trials (a, b, a, b, ...) and takes the
     per-side minimum: monotonic drift across the trio (thermal, page
     cache) then hits both sides of the ratio equally instead of landing
     on whichever side happened to run last. *)
  let trials = if fast then 1 else 3 in
  let off_a = ref infinity and off_b = ref infinity in
  for _ = 1 to trials do
    off_a := Float.min !off_a (profiler_replay ~profiled:false ~duration_s);
    off_b := Float.min !off_b (profiler_replay ~profiled:false ~duration_s)
  done;
  let on =
    let once () = profiler_replay ~profiled:true ~duration_s in
    if fast then once () else Float.min (once ()) (once ())
  in
  ( mk "e2e.profiler_off_a" !off_a,
    mk "e2e.profiler_on" on,
    mk "e2e.profiler_off_b" !off_b )

(* ---- Assembly --------------------------------------------------------- *)

let bench_json b =
  Export.Obj
    [
      ("name", Export.Str b.name);
      ("ops", Export.Num (float_of_int b.ops));
      ("ns_per_op", Export.Num b.ns_per_op);
    ]

let speedup_json name ~old_b ~new_b =
  Export.Obj
    [
      ("name", Export.Str name);
      ("old", Export.Str old_b.name);
      ("new", Export.Str new_b.name);
      ("ratio", Export.Num (old_b.ns_per_op /. new_b.ns_per_op));
    ]

let run () =
  Printf.printf "\n== Hot-path performance suite (vini.perf/1%s) ==\n%!"
    (if fast then ", fast mode" else "");
  let heap_b = bench ~name:"sched.heap_churn" ~ops:sched_ops churn_heap in
  let evq_b = bench ~name:"sched.eventq_churn" ~ops:sched_ops churn_eventq in
  let rearm_cancel_b =
    bench ~name:"sched.rearm_cancel" ~ops:rearm_ops (rearm ~timer:false)
  in
  let rearm_timer_b =
    bench ~name:"sched.rearm_timer" ~ops:rearm_ops (rearm ~timer:true)
  in
  let table = lpm_table (Rng.create 7) in
  let refer = Fib_reference.create () in
  let fib = Fib.create () in
  Array.iter
    (fun (p, v) ->
      Fib_reference.add refer p v;
      Fib.add fib p v)
    table;
  let flows = flow_probes (Rng.create 11) in
  let uniform = uniform_probes (Rng.create 13) in
  let lpm_ops = lpm_passes * lpm_probes in
  let ref_flow =
    bench ~name:"lpm.reference_flow" ~ops:lpm_ops
      (lookup_loop Fib_reference.lookup refer flows)
  in
  let fib_flow =
    bench ~name:"lpm.compressed_flow" ~ops:lpm_ops
      (lookup_loop Fib.lookup fib flows)
  in
  let hits = Fib.cache_hits fib and misses = Fib.cache_misses fib in
  let ref_uni =
    bench ~name:"lpm.reference_uniform" ~ops:lpm_ops
      (lookup_loop Fib_reference.lookup refer uniform)
  in
  let fib_uni =
    bench ~name:"lpm.compressed_uniform" ~ops:lpm_ops
      (lookup_loop Fib.lookup fib uniform)
  in
  let embed_ops = embed_passes * embed_slices in
  let embed_greedy =
    bench ~name:"embed.solve_greedy" ~ops:embed_ops
      (embed_arrival Vini_embed.Request.Greedy)
  in
  let embed_online =
    bench ~name:"embed.solve_online" ~ops:embed_ops
      (embed_arrival Vini_embed.Request.Online)
  in
  let scen_gen_b =
    bench ~name:"scenario.gen_backbone200" ~ops:scen_gen_passes scen_generate
  in
  let scen_wl_b =
    bench ~name:"scenario.workload_1m" ~ops:scen_flows scen_workload
  in
  let scen_ops = scen_embed_passes * scen_embed_slices in
  let scen_greedy =
    bench ~name:"scenario.embed200_greedy" ~ops:scen_ops
      (scen_embed Vini_embed.Request.Greedy)
  in
  let scen_online =
    bench ~name:"scenario.embed200_online" ~ops:scen_ops
      (scen_embed Vini_embed.Request.Online)
  in
  let scen_reroute =
    bench ~name:"scenario.reroute200" ~ops:scen_reroutes
      (scen_reroute_loop (snd (scen_underlay ())))
  in
  let scen_tick =
    bench ~name:"scenario.fluid_tick200" ~ops:scen_ticks
      (scen_fluid_loop (scen_fluid_setup ()))
  in
  let migrate_b =
    bench ~name:"embed.migrate_cutover" ~ops:migrate_cycles
      (migrate_cutover_loop (migrate_cutover_setup ()))
  in
  let dp_single =
    bench ~name:"dp.per_packet_events" ~ops:dp_packets ~trials:2
      (dp_run ~batched:false)
  in
  let dp_batch =
    bench ~name:"dp.breath_64" ~ops:dp_packets ~trials:2
      (dp_run ~batched:true)
  in
  let macro_b, mbps = macro () in
  let spans_off_a, spans_on, spans_off_b = spans_benches () in
  let prof_off_a, prof_on, prof_off_b = profiler_benches () in
  let benches =
    [ heap_b; evq_b; rearm_cancel_b; rearm_timer_b; ref_flow; fib_flow;
      ref_uni; fib_uni; embed_greedy; embed_online; scen_gen_b; scen_wl_b;
      scen_greedy; scen_online; scen_reroute; scen_tick; migrate_b; dp_single;
      dp_batch; macro_b; spans_off_a; spans_on; spans_off_b; prof_off_a;
      prof_on; prof_off_b ]
  in
  let speedups =
    [
      (* The engine's queue vs the generic heap it started from. *)
      ("scheduler_churn", heap_b, evq_b);
      (* Re-arming one deadline: cancel + after vs Engine.Timer.arm. *)
      ("timer_rearm", rearm_cancel_b, rearm_timer_b);
      ("lpm_lookup_flow", ref_flow, fib_flow);
      ("lpm_lookup_uniform", ref_uni, fib_uni);
      (* The batched data plane: one engine event per 64-packet breath vs
         one per packet, identical packets in identical order both ways.
         Gated >= 5x in CI — what the per-packet schedule pays in event
         churn is the whole prize. *)
      ("dataplane_batching", dp_single, dp_batch);
      (* The disabled-path gate: two recorder-absent replays should cost
         the same (ratio ~1.0; CI fails below 0.98, i.e. >2% drift). *)
      ("spans_disabled_path", spans_off_a, spans_off_b);
      (* Full-recording cost, old=enabled / new=disabled: >1 means the
         recorder costs that factor when switched on.  Not gated. *)
      ("spans_enabled_cost", spans_on, spans_off_b);
      (* The profiler's disabled-path gate, same contract as the spans
         one: two profile-absent replays, ratio ~1.0, CI fails below
         0.98. *)
      ("profiler_disabled_path", prof_off_a, prof_off_b);
      (* Profiler-on cost, recorded but not gated. *)
      ("profiler_enabled_cost", prof_on, prof_off_b);
    ]
  in
  List.iter
    (fun b -> Printf.printf "  %-24s %12.1f ns/op  (%d ops)\n" b.name b.ns_per_op b.ops)
    benches;
  List.iter
    (fun (n, o, w) ->
      Printf.printf "  speedup %-18s %6.2fx  (%s / %s)\n" n
        (o.ns_per_op /. w.ns_per_op)
        o.name w.name)
    speedups;
  Printf.printf
    "  flow-cache hit rate %.1f%% on the flow trace  (%d hits / %d misses)\n"
    (100.0 *. float_of_int hits /. float_of_int (max 1 (hits + misses)))
    hits misses;
  Printf.printf "  e2e replay %.1f Mb/s\n" mbps;
  let doc =
    Export.Obj
      [
        ("schema", Export.Str "vini.perf/1");
        ( "runner",
          Export.Obj
            [
              ("ocaml", Export.Str Sys.ocaml_version);
              ("word_size", Export.Num (float_of_int Sys.word_size));
              ( "cores",
                Export.Num
                  (float_of_int (Domain.recommended_domain_count ())) );
            ] );
        ("benches", Export.Arr (List.map bench_json benches));
        ( "speedups",
          Export.Arr
            (List.map
               (fun (n, o, w) -> speedup_json n ~old_b:o ~new_b:w)
               speedups) );
      ]
  in
  let path =
    Option.value (Sys.getenv_opt "VINI_PERF_OUT") ~default:"BENCH_PERF.json"
  in
  Export.write ~path doc;
  Printf.printf "  wrote %s\n%!" path
