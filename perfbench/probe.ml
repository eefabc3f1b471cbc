(* One operation's measurements.  Layers are observed from outside: the
   benchmark times and counts around its calls into the libraries and
   reads each layer's public counters once an engine has finished. *)

module Engine = Vini_sim.Engine
module Time = Vini_sim.Time
module Histogram = Vini_std.Histogram
module Graph = Vini_topo.Graph
module Underlay = Vini_phys.Underlay
module Plink = Vini_phys.Plink
module Pnode = Vini_phys.Pnode
module Process = Vini_phys.Process
module Iias = Vini_overlay.Iias
module Ospf = Vini_routing.Ospf

type t = {
  sums : (string, float) Hashtbl.t;
  samples : (string, float list) Hashtbl.t;
  hists : (string, Histogram.t) Hashtbl.t;
  fingerprint : Buffer.t;  (** deterministic counters, for the self-check *)
  mutable failures : string list;
  mutable fidelity : (float * float) list;  (** (measured, paper) *)
  mutable setup_mark : float;
}

let create () =
  {
    sums = Hashtbl.create 64;
    samples = Hashtbl.create 16;
    hists = Hashtbl.create 4;
    fingerprint = Buffer.create 256;
    failures = [];
    fidelity = [];
    setup_mark = 0.0;
  }

let clock = Unix.gettimeofday
let get t k = Option.value (Hashtbl.find_opt t.sums k) ~default:0.0
let add t k v = Hashtbl.replace t.sums k (get t k +. v)
let addi t k v = add t k (float_of_int v)
let peak t k v = Hashtbl.replace t.sums k (Float.max (get t k) v)

let sample t k v =
  Hashtbl.replace t.samples k
    (v :: Option.value (Hashtbl.find_opt t.samples k) ~default:[])

let samples t k = Option.value (Hashtbl.find_opt t.samples k) ~default:[]

let hist t k h =
  let acc =
    match Hashtbl.find_opt t.hists k with
    | Some a -> a
    | None ->
        let a = Histogram.create () in
        Hashtbl.replace t.hists k a;
        a
  in
  Hashtbl.replace t.hists k (Histogram.merge acc h)

(* Deterministic quantities go into the fingerprint with every digit, so a
   repeated operation with the same seed must reproduce it byte for byte. *)
let fp t k v = Printf.bprintf t.fingerprint "%s=%.17g;" k v
let fpi t k v = Printf.bprintf t.fingerprint "%s=%d;" k v

let check t name ok detail =
  if not ok then t.failures <- Printf.sprintf "%s (%s)" name detail :: t.failures

(* Acceptance band around a paper value: record the fidelity pair (when
   [paper] is the value compared against) and fail outside [lo, hi]. *)
let band ?(fidelity = true) t name ~paper ~lo ~hi v =
  if fidelity then t.fidelity <- (v, paper) :: t.fidelity;
  fp t name v;
  check t name (v >= lo && v <= hi)
    (Printf.sprintf "%.4g outside [%.4g, %.4g], paper %.4g" v lo hi paper)

(* Set-up runs from the first input to the first simulated event;
   [begin_setup]/[end_setup] bracket it and may be called per
   sub-experiment. *)
let begin_setup t = t.setup_mark <- clock ()
let end_setup t = add t "setup_s" (clock () -. t.setup_mark)

let timed t key f =
  let t0 = clock () in
  let r = Tracer.with_span key f in
  add t key (clock () -. t0);
  r

(* A traced run profiles every engine it creates. *)
let new_engine ~seed =
  let e = Engine.create ~seed () in
  if !Tracer.on then Engine.set_profiling e true;
  e

(* One window of simulated time: host seconds inside [Engine.run] and the
   simulated seconds it advanced. *)
let run t engine ~until =
  let s0 = Engine.now engine in
  let w0 = Gc.minor_words () in
  let t0 = clock () in
  Tracer.with_span "sim.run" (fun () -> Engine.run ~until engine);
  add t "sim.run_s" (clock () -. t0);
  add t "run_words" (Gc.minor_words () -. w0);
  add t "sim_s" (Time.to_sec_f (Time.sub (Engine.now engine) s0))

(* Layer counters, read once an engine is done with. *)

let harvest_engine t e =
  addi t "sim.events" (Engine.events_fired e);
  addi t "sim.events_inlined" (Engine.events_inlined e);
  addi t "sim.events_cancelled" (Engine.events_cancelled e);
  peak t "sim.max_pending" (float_of_int (Engine.max_pending e));
  fpi t "events" (Engine.events_fired e);
  if Engine.profiling e then begin
    let h = Engine.callback_hist e in
    hist t "sim.callback_s" h;
    add t "sim.callback_sum_s" (Histogram.sum h)
  end

let harvest_underlay t u =
  let sent = ref 0 and drops = ref 0 and bg = ref 0 in
  List.iter
    (fun (l : Graph.link) ->
      let p = Underlay.plink u l.Graph.a l.Graph.b in
      for dir = 0 to 1 do
        let s = Plink.stats p ~dir in
        sent := !sent + s.Plink.sent;
        drops :=
          !drops + s.Plink.queue_drops + s.Plink.loss_drops + s.Plink.down_drops
          + s.Plink.bg_drops;
        bg := !bg + s.Plink.bg_drops
      done)
    (Graph.links (Underlay.graph u));
  addi t "phys.plink_pkts" !sent;
  addi t "phys.plink_drops" !drops;
  addi t "scenario.bg_drops" !bg;
  fpi t "plink_pkts" !sent;
  fpi t "plink_drops" !drops;
  List.iter
    (fun n -> hist t "phys.cpu_wake_s" (Vini_phys.Cpu.wake_latency_hist (Pnode.cpu n)))
    (Underlay.nodes u)

let harvest_iias t iias =
  for v = 0 to Iias.vnode_count iias - 1 do
    let vn = Iias.vnode iias v in
    let s = Iias.stats vn in
    addi t "click.pkts" (s.Iias.forwarded + s.Iias.delivered);
    addi t "click.tunnel_drops" s.Iias.tunnel_drops;
    addi t "overlay.no_route" s.Iias.no_route;
    let hits, misses = Iias.fib_cache_stats vn in
    addi t "click.fib_cache_hits" hits;
    addi t "click.fib_cache_lookups" (hits + misses);
    let mhits, mlookups = Iias.fib_memo_stats vn in
    addi t "click.fib_memo_hits" mhits;
    addi t "click.fib_memo_lookups" mlookups;
    let p = Iias.process vn in
    addi t "phys.proc_wakeups" (Process.wakeups p);
    addi t "phys.proc_pkts" (Process.packets_processed p);
    addi t "phys.proc_breaths" (Process.breaths p);
    addi t "phys.socket_drops" (Process.socket_drops p);
    match Iias.ospf vn with
    | Some o ->
        addi t "routing.msgs" (Ospf.messages_sent o);
        addi t "routing.spf_runs" (Ospf.spf_runs o);
        addi t "routing.routes_installed" (Ospf.routes_installed o)
    | None -> ()
  done

let harvest_tcp t ~bytes ~seconds ~retransmits ~timeouts =
  add t "tcp.bytes" (float_of_int bytes);
  add t "tcp.seconds" seconds;
  addi t "tcp.retransmits" retransmits;
  addi t "tcp.timeouts" timeouts
