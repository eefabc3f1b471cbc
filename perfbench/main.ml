(* The benchmark command.  perfbench/run.py builds and runs it:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   One single-threaded process on the classic engine, closed loop: one
   operation at a time until [--seconds] of measured work have passed.
   The last line of standard output is the result object; the lines
   before it are the run manifest and a human-readable table. *)

open Perfbench

let workloads = [ "deter_table2"; "ospf_reconverge"; "backbone200_tenants" ]

(* Where a traced run writes its spans, relative to the checkout. *)
let out_dir = ".perfbench"

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  rev : string;
  src_sha256 : string;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let rev = ref "unknown" and src = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1 = traced run (per-layer metrics)");
      ("--rev", Arg.Set_string rev, " source revision for the manifest");
      ("--src-sha256", Arg.Set_string src, " digest of lib/ for the manifest");
    ]
  in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected " ^ a))) "main.exe";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown --workload " ^ !workload);
    exit 2
  end;
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
    rev = !rev; src_sha256 = !src }

(* One profile for the whole run: traced stretches install it, untraced
   ones take it down, so its element counts cover the traced work. *)
let profile = Vini_sim.Profile.create ()

let set_traced on =
  Tracer.on := on;
  if on then Vini_sim.Profile.install profile else Vini_sim.Profile.uninstall ()

(* Run [f] on a fresh probe as one operation: host time, GC counters. *)
let measure name f =
  let p = Probe.create () in
  let s0 = Gc.quick_stat () in
  let t0 = Probe.clock () in
  let r = Tracer.with_span name (fun () -> f p) in
  let wall = Probe.clock () -. t0 in
  let s1 = Gc.quick_stat () in
  Probe.add p "gc.minor_words" (s1.Gc.minor_words -. s0.Gc.minor_words);
  Probe.add p "gc.promoted_words" (s1.Gc.promoted_words -. s0.Gc.promoted_words);
  Probe.addi p "gc.major_collections" (s1.Gc.major_collections - s0.Gc.major_collections);
  (p, wall, r)

let fingerprint ps = String.concat "|" (List.map (fun (p : Probe.t) -> Buffer.contents p.Probe.fingerprint) ps)
let op_seed seed i = (seed * 1_000_003) + (i * 7919)

(* deter_table2 and ospf_reconverge: each operation builds and runs its
   own engines, so operations, set-ups and simulated work coincide.  The
   first operation runs twice untraced: every deterministic counter must
   repeat exactly, and the heap is read at that fixed point so that it
   does not depend on how many operations the time allowed.  A traced
   run then traces the same operation a third time, and compares it
   with the warm untraced repeat for its overhead. *)
let chain_workload a ~op =
  let deadline = Probe.clock () +. a.seconds in
  let run_op i = measure "op" (fun p -> op p ~seed:(op_seed a.seed i)) in
  set_traced false;
  let first, first_wall, () = run_op 0 in
  let again, again_wall, () = run_op 0 in
  let heap_mb = Metrics.peak_heap_mb () in
  set_traced a.trace;
  let head, head_wall, () = if a.trace then run_op 0 else (first, first_wall, ()) in
  List.iter
    (fun p ->
      Probe.check p "determinism"
        (fingerprint [ first ] = fingerprint [ p ])
        "a repeated operation did not reproduce its counters")
    (if a.trace then [ again; head ] else [ again ]);
  let rec loop i acc =
    if Probe.clock () >= deadline then List.rev acc
    else
      let p, wall, () = run_op i in
      loop (i + 1) ((p, wall) :: acc)
  in
  let measured = (head, head_wall) :: loop 1 [] in
  let ops = List.map fst measured in
  {
    Metrics.setups = ops; sims = ops; ops; op_wall = List.map snd measured;
    untraced = again; traced_wall = head_wall; untraced_wall = again_wall;
    checked = (if a.trace then [ first; again ] else [ again ]) @ ops;
    heap_mb; arrivals = 0; admitted = 0;
    element_pkts = Vini_sim.Profile.element_packets_total profile;
  }

let arrivals_per_round = 40

type round = {
  traced : bool;
  setup : Probe.t;
  arrivals : (Probe.t * float) list;
  campaign : Probe.t;
  drain : Probe.t;
  tenants : Tenants_wl.t;
}

(* backbone200_tenants: rounds until the time is up, at least two.  A
   round sets up from the inputs, runs [arrivals_per_round] arrivals (the
   operations), the campaign, and the departure of every tenant.  Every
   round replays the same seed, so each must reproduce the first one's
   counters exactly, and the heap is read after the first.  A traced run
   traces the even rounds and keeps the odd ones after the first, which
   runs cold, as its untraced baseline; it makes at least three. *)
let tenants_workload a ~scale ~text =
  let module T = Tenants_wl in
  let arrival ~traced t =
    let next = T.next t in
    let solve = if traced then Some (T.solve_ms t next) else None in
    let p, wall, r = measure "arrival" (fun p -> T.arrive p t next) in
    T.verify p t next r;
    Option.iter (Probe.sample p "embed.solve_ms") solve;
    (p, wall)
  in
  let round k =
    let traced = a.trace && k mod 2 = 0 in
    set_traced traced;
    let setup, _, t = measure "setup" (fun p -> T.setup p ~seed:a.seed ~text) in
    let arrivals = List.init arrivals_per_round (fun _ -> arrival ~traced t) in
    let campaign, _, () = measure "campaign" (fun p -> T.campaign p t ~scale) in
    set_traced false;
    let drain, _, () = measure "drain" (fun p -> T.drain p t) in
    { traced; setup; arrivals; campaign; drain; tenants = t }
  in
  let deadline = Probe.clock () +. a.seconds in
  let min_rounds = if a.trace then 3 else 2 in
  let first = round 1 in
  let heap_mb = Metrics.peak_heap_mb () in
  let rec loop k acc =
    if k > min_rounds && Probe.clock () >= deadline then List.rev acc
    else loop (k + 1) (round k :: acc)
  in
  let rounds = first :: loop 2 [] in
  let fp r = fingerprint ((r.setup :: List.map fst r.arrivals) @ [ r.campaign; r.drain ]) in
  let det = Probe.create () in
  Probe.check det "determinism"
    (List.for_all (fun r -> fp r = fp first) rounds)
    "a round on the same inputs did not reproduce the first round's counters";
  let reported = List.filter (fun r -> r.traced = a.trace) rounds in
  let baseline = List.filter (fun r -> (not r.traced) && r != first) rounds in
  let arrivals = List.concat_map (fun r -> r.arrivals) reported in
  let median_wall rs = Bstats.median0 (List.concat_map (fun r -> List.map snd r.arrivals) rs) in
  let t = first.tenants in
  {
    Metrics.setups = List.map (fun r -> r.setup) reported;
    sims = List.map (fun r -> r.campaign) reported;
    ops = List.map fst arrivals; op_wall = List.map snd arrivals;
    untraced = first.campaign;
    traced_wall = median_wall reported; untraced_wall = median_wall baseline;
    heap_mb;
    checked =
      det :: List.concat_map (fun r -> (r.campaign :: r.drain :: List.map fst r.arrivals)) rounds;
    arrivals = t.T.arrivals; admitted = t.T.admitted;
    element_pkts = Vini_sim.Profile.element_packets_total profile;
  }

module Json = Vini_std.Json

(* What the run measured, for the manifest: the seed scheme of its
   operations and the digest of every input it built them from. *)
let op_seed_input a ops =
  ( "op_seeds",
    Printf.sprintf "seed %d * 1000003 + i * 7919, i = 0 .. %d" a.seed (ops - 1) )

let graph_text g = Format.asprintf "%a" Vini_topo.Graph.pp g

let manifest a inputs =
  Json.Obj
    [
      ( "manifest",
        Json.Obj
          [
            ("workload", Json.Str a.workload);
            ("seed", Json.Num (float_of_int a.seed));
            ("seconds", Json.Num a.seconds);
            ("traced", Json.Bool a.trace);
            ("git_rev", Json.Str a.rev);
            ("src_sha256", Json.Str a.src_sha256);
            ("ocaml", Json.Str Sys.ocaml_version);
            ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
            ("engine", Json.Str "classic");
            ("inputs", Json.Obj (List.map (fun (n, text) -> (n, Json.Str (Sha256.hex text))) inputs));
          ] );
    ]

let () =
  let a = parse_args () in
  Tracer.reset ();
  set_traced a.trace;
  let r, inputs =
    match a.workload with
    | "deter_table2" ->
        let r = chain_workload a ~op:(fun p ~seed -> Deter_wl.op p ~seed) in
        (r, [ op_seed_input a (List.length r.Metrics.ops);
              ("deter.topology", graph_text (Vini_topo.Datasets.Deter.topology ())) ])
    | "ospf_reconverge" ->
        let r = chain_workload a ~op:(fun p ~seed -> Ospf_wl.op p ~seed) in
        let ops = List.length r.Metrics.ops in
        let backbones =
          String.concat ""
            (List.init ops (fun i ->
                 Vini_scenario.Generate.document
                   { Vini_scenario.Generate.kind =
                       Vini_scenario.Generate.backbone Ospf_wl.full.Ospf_wl.backbone_pops;
                     seed = op_seed a.seed i }))
        in
        (r, [ op_seed_input a ops;
              ("abilene.topology", graph_text (Vini_repro.Abilene.topology ()));
              ("backbones.vini.topo", backbones) ])
    | _ ->
        let text =
          try Tenants_wl.read_file Tenants_wl.spec_path
          with Sys_error e ->
            prerr_endline e;
            exit 2
        in
        (tenants_workload a ~scale:Tenants_wl.full ~text, Tenants_wl.inputs ~text)
  in
  print_endline (Json.to_string (manifest a inputs));
  List.iter
    (fun p -> List.iter (fun f -> Printf.printf "FAILED: %s\n" f) (List.rev p.Probe.failures))
    r.Metrics.checked;
  let attempted = List.length r.Metrics.checked in
  let failed = List.length (List.filter (fun p -> p.Probe.failures <> []) r.Metrics.checked) in
  let metrics =
    if a.trace then Metrics.per_layer r
    else
      List.map
        (fun (n, v) ->
          let _, u, _ = List.find (fun (m, _, _) -> m = n) Metrics.end_to_end in
          (n, u, v))
        (Metrics.e2e r)
  in
  Printf.printf "%-28s %18s  %s\n" "metric" "value" "unit";
  List.iter (fun (n, u, v) -> Printf.printf "%-28s %18.6g  %s\n" n v u) metrics;
  Printf.printf "operations %d attempted, %d failed\n" attempted failed;
  if a.trace then begin
    Printf.printf "\nspans (host seconds): name calls total self\n";
    List.iter
      (fun (n, c, tot, slf) -> Printf.printf "  %-24s %8d %10.4f %10.4f\n" n c tot slf)
      (Tracer.summary ());
    try
      if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
      let path = Filename.concat out_dir (Printf.sprintf "spans-%s-%d.json" a.workload a.seed) in
      Tracer.write path;
      Printf.printf "spans written to %s\n" path
    with Sys_error e -> Printf.printf "spans not written: %s\n" e
  end;
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool (failed = 0 && finite));
        ("attempted", Json.Num (float_of_int attempted));
        ("failed", Json.Num (float_of_int failed));
        ( "metrics",
          Json.Obj
            (List.map
               (fun (n, u, v) ->
                 (n, Json.Obj [ ("value", Json.Num (if Float.is_finite v then v else 0.0)); ("unit", Json.Str u) ]))
               metrics) );
      ]
  in
  print_endline (Json.to_string result)
