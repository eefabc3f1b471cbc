(* Every metric the benchmark prints, by name and unit, and how each is
   computed from one run's measurements.  BENCHMARK.json lists the same
   names (the tests compare the two). *)

type run = {
  setups : Probe.t list;  (** one per set-up: the unit of [setup_s], core.*, generate *)
  sims : Probe.t list;  (** what ran engines: operations, or the campaign *)
  ops : Probe.t list;  (** measured operations *)
  op_wall : float list;  (** host seconds per measured operation *)
  untraced : Probe.t;  (** an untraced engine run, for what profiling changes *)
  traced_wall : float;  (** host seconds of an operation in the run's mode *)
  untraced_wall : float;  (** ... and of the same work untraced *)
  checked : Probe.t list;  (** every operation whose checks count *)
  heap_mb : float;  (** top heap size at a fixed point of the run's work *)
  arrivals : int;
  admitted : int;
  element_pkts : int;  (** Click element packets seen by the installed profile *)
}

(* (name, unit, better) *)
let end_to_end =
  [
    ("setup_s", "s", "lower");
    ("op_s_p50", "s", "lower");
    ("sim_s_per_s", "1/s", "higher");
    ("pkts_per_s", "1/s", "higher");
    ("words_per_pkt", "words", "lower");
    ("peak_heap_mb", "MB", "lower");
  ]

let sum parts k = List.fold_left (fun acc p -> acc +. Probe.get p k) 0.0 parts
let per parts k = Bstats.ratio (sum parts k) (float_of_int (List.length parts))
let med parts k = Bstats.median0 (List.map (fun p -> Probe.get p k) parts)
let samples parts k = List.concat_map (fun p -> Probe.samples p k) parts

let hist_pct parts k q =
  let h =
    List.fold_left
      (fun acc p ->
        match Hashtbl.find_opt p.Probe.hists k with
        | Some h -> Vini_std.Histogram.merge acc h
        | None -> acc)
      (Vini_std.Histogram.create ()) parts
  in
  if Vini_std.Histogram.is_empty h then 0.0 else Vini_std.Histogram.percentile h q

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let e2e r =
  let s = r.sims in
  [
    ("setup_s", med r.setups "setup_s");
    ("op_s_p50", Bstats.median0 r.op_wall);
    ("sim_s_per_s", Bstats.ratio (sum s "sim_s") (sum s "sim.run_s"));
    ("pkts_per_s", Bstats.ratio (sum s "phys.plink_pkts") (sum s "sim.run_s"));
    ("words_per_pkt", Bstats.ratio (sum s "run_words") (sum s "phys.plink_pkts"));
    ("peak_heap_mb", r.heap_mb);
  ]

(* (name, unit, value).  Counts are per operation (per campaign on
   backbone200_tenants, whose operations run no engine); a ratio whose
   denominator is zero and a metric of a layer the workload does not
   exercise read 0. *)
let per_layer r =
  let s = r.sims and o = r.ops in
  let us = 1e6 in
  [
    ("sim.events", "count/op", per s "sim.events");
    ("sim.events_per_pkt", "ratio", Bstats.ratio (sum s "sim.events") (sum s "phys.plink_pkts"));
    (* Profiling turns inline dispatch off, so this one comes from the
       untraced re-run. *)
    ("sim.events_inlined_ratio", "ratio",
      Bstats.ratio (Probe.get r.untraced "sim.events_inlined") (Probe.get r.untraced "sim.events"));
    ("sim.max_pending", "count", List.fold_left (fun a p -> Float.max a (Probe.get p "sim.max_pending")) 0.0 s);
    ("sim.events_cancelled", "count/op", per s "sim.events_cancelled");
    ("sim.run_s", "s/op", per s "sim.run_s");
    ("sim.callback_us_p50", "us", us *. hist_pct s "sim.callback_s" 50.0);
    ("sim.callback_us_p99", "us", us *. hist_pct s "sim.callback_s" 99.0);
    ("sim.dispatch_s", "s/op",
      Bstats.ratio (sum s "sim.run_s" -. sum s "sim.callback_sum_s") (float_of_int (List.length s)));
    ("click.pkts", "count/op", per s "click.pkts");
    ("click.fib_cache_hit_ratio", "ratio", Bstats.ratio (sum s "click.fib_cache_hits") (sum s "click.fib_cache_lookups"));
    ("click.fib_memo_hit_ratio", "ratio", Bstats.ratio (sum s "click.fib_memo_hits") (sum s "click.fib_memo_lookups"));
    ("click.tunnel_drops", "count/op", per s "click.tunnel_drops");
    ("click.element_pkts", "count/op", Bstats.ratio (float_of_int r.element_pkts) (float_of_int (List.length s)));
    ("overlay.no_route", "count/op", per s "overlay.no_route");
    ("phys.plink_pkts", "count/op", per s "phys.plink_pkts");
    ("phys.plink_drops", "count/op", per s "phys.plink_drops");
    ("phys.proc_wakeups", "count/op", per s "phys.proc_wakeups");
    ("phys.pkts_per_breath", "ratio", Bstats.ratio (sum s "phys.proc_pkts") (sum s "phys.proc_breaths"));
    ("phys.socket_drops", "count/op", per s "phys.socket_drops");
    ("phys.cpu_wake_us_p50", "us", us *. hist_pct s "phys.cpu_wake_s" 50.0);
    ("phys.cpu_wake_us_p99", "us", us *. hist_pct s "phys.cpu_wake_s" 99.0);
    ("phys.fwdr_cpu_pct", "%", per s "phys.fwdr_cpu_pct");
    ("tcp.goodput_mbps", "Mb/s", Bstats.ratio (8.0 *. sum s "tcp.bytes" /. 1e6) (sum s "tcp.seconds"));
    ("tcp.retransmits", "count/op", per s "tcp.retransmits");
    ("tcp.timeouts", "count/op", per s "tcp.timeouts");
    ("routing.msgs", "count/op", per s "routing.msgs");
    ("routing.spf_runs", "count/op", per s "routing.spf_runs");
    ("routing.routes_installed", "count/op", per s "routing.routes_installed");
    ("routing.converge_sim_s", "s", Bstats.median0 (samples s "routing.converge_sim_s"));
    ("routing.reconverge_sim_s", "s", Bstats.median0 (samples s "routing.reconverge_sim_s"));
    ("embed.deploy_ms_p50", "ms", Bstats.median0 (samples o "embed.deploy_ms"));
    ("embed.deploy_ms_tail", "ms",
      match Bstats.tail (samples o "embed.deploy_ms") with Some (_, v) -> v | None -> 0.0);
    ("embed.solve_ms_p50", "ms", Bstats.median0 (samples o "embed.solve_ms"));
    ("embed.rejected", "count", sum o "embed.rejected");
    ("embed.max_node_stress", "ratio", List.fold_left (fun a p -> Float.max a (Probe.get p "embed.max_node_stress")) 0.0 s);
    ("embed.stretch", "ratio",
      (match samples o "embed.stretch" with
      | [] -> 0.0
      | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)));
    ("scenario.generate_s", "s", med r.setups "scenario.generate_s");
    ("scenario.fluid_ticks", "count/op", per s "scenario.fluid_ticks");
    ("scenario.fluid_flows", "count/op", per s "scenario.fluid_flows");
    ("scenario.bg_drops", "count/op", per s "scenario.bg_drops");
    ("core.parse_s", "s", med r.setups "core.parse_s");
    ("core.create_s", "s", med r.setups "core.create_s");
    ("core.start_s", "s", med r.setups "core.start_s");
    ("gc.minor_words", "words/op", per o "gc.minor_words");
    ("gc.promoted_words", "words/op", per o "gc.promoted_words");
    ("gc.major_collections", "count/op", per o "gc.major_collections");
    (* Workload-level figures that only some workloads have. *)
    ("op_s_tail", "s", match Bstats.tail r.op_wall with Some (_, v) -> v | None -> 0.0);
    ("fidelity_err_pct", "%",
      Bstats.median0 (List.map (fun p -> Bstats.mean_abs_rel_err_pct p.Probe.fidelity)
        (List.filter (fun p -> p.Probe.fidelity <> []) o)));
    ("accept_ratio", "ratio", Bstats.ratio (float_of_int r.admitted) (float_of_int r.arrivals));
    ("failed_ratio", "ratio",
      Bstats.ratio
        (float_of_int (List.length (List.filter (fun p -> p.Probe.failures <> []) r.checked)))
        (float_of_int (List.length r.checked)));
    ("trace.overhead_pct", "%", 100.0 *. (Bstats.ratio r.traced_wall r.untraced_wall -. 1.0));
  ]

(* The per-layer names and units, without needing a run. *)
let per_layer_names () =
  let p = Probe.create () in
  List.map
    (fun (n, u, _) -> (n, u))
    (per_layer
       { setups = []; sims = []; ops = []; op_wall = []; untraced = p;
         traced_wall = 0.0; untraced_wall = 0.0; checked = [];
         heap_mb = 0.0; arrivals = 0; admitted = 0; element_pkts = 0 })
