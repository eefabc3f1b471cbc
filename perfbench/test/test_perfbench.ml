open Perfbench

let close ?(eps = 1e-9) = Alcotest.(check (float eps))

let tail_rule () =
  Alcotest.(check (option (pair (float 1e-9) (float 0.0))))
    "10 samples support no tail" None
    (Bstats.tail (List.init 10 float_of_int));
  (* 11 samples: only the smallest has ten beyond it. *)
  Alcotest.(check (option (pair (float 1e-9) (float 0.0))))
    "11 samples" (Some (100.0 /. 11.0, 0.0))
    (Bstats.tail (List.rev (List.init 11 float_of_int)));
  let shuffled = List.init 100 (fun i -> float_of_int ((i * 37) mod 100)) in
  Alcotest.(check (option (pair (float 1e-9) (float 0.0))))
    "100 samples: p90, ten beyond" (Some (90.0, 89.0)) (Bstats.tail shuffled)

let ratios () =
  close "zero denominator reads 0" 0.0 (Bstats.ratio 5.0 0.0);
  close "plain ratio" 0.75 (Bstats.ratio 3.0 4.0);
  close "mean abs rel err" 10.0 (Bstats.mean_abs_rel_err_pct [ (110.0, 100.0); (45.0, 50.0) ]);
  close "no pairs" 0.0 (Bstats.mean_abs_rel_err_pct []);
  close "odd median" 2.0 (Bstats.median0 [ 3.0; 1.0; 2.0 ]);
  close "even median" 2.5 (Bstats.median0 [ 4.0; 1.0; 2.0; 3.0 ]);
  close "empty median" 0.0 (Bstats.median0 [])

let sha256 () =
  let v = Alcotest.(check string) in
  v "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" (Sha256.hex "");
  v "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" (Sha256.hex "abc");
  v "two blocks" "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

(* The names and units the command prints are the ones BENCHMARK.json
   declares, in both sets. *)
let names_match_benchmark_json () =
  let module J = Vini_std.Json in
  let doc =
    let ic = open_in_bin "../../BENCHMARK.json" in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match J.of_string s with Ok j -> j | Error e -> Alcotest.fail e
  in
  let declared key =
    match Option.bind (J.member key doc) J.to_list with
    | None -> Alcotest.fail ("BENCHMARK.json has no " ^ key)
    | Some l ->
        List.map
          (fun m ->
            let field k = Option.get (Option.bind (J.member k m) J.to_str) in
            (field "name", field "unit"))
          l
  in
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end_to_end"
    (declared "end_to_end")
    (List.map (fun (n, u, _) -> (n, u)) Metrics.end_to_end);
  Alcotest.check pairs "per_layer" (declared "per_layer") (Metrics.per_layer_names ())

let no_failures what (p : Probe.t) =
  Alcotest.(check (list string)) (what ^ " passes its checks") [] p.Probe.failures

let deter_short_op () =
  let p = Probe.create () in
  Deter_wl.op ~scale:Deter_wl.short p ~seed:42;
  no_failures "deter_table2" p;
  Alcotest.(check bool) "packets were sent" true (Probe.get p "phys.plink_pkts" > 0.0)

let ospf_short_op () =
  let run () =
    let p = Probe.create () in
    Ospf_wl.op ~scale:Ospf_wl.short p ~seed:42;
    p
  in
  let a = run () and b = run () in
  no_failures "ospf_reconverge" a;
  Alcotest.(check string) "same seed, same counters"
    (Buffer.contents a.Probe.fingerprint) (Buffer.contents b.Probe.fingerprint);
  Alcotest.(check int) "cold convergence and two reconvergences measured" 3
    (List.length (Probe.samples a "routing.converge_sim_s" @ Probe.samples a "routing.reconverge_sim_s"))

let tenants_short_op () =
  let text =
    let ic = open_in_bin ("../../" ^ Tenants_wl.spec_path) in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let p = Probe.create () in
  let t = Tenants_wl.setup p ~seed:42 ~text in
  for _ = 1 to 3 do
    let a = Tenants_wl.next t in
    Tenants_wl.verify p t a (Tenants_wl.arrive p t a)
  done;
  Tenants_wl.campaign p t ~scale:Tenants_wl.short;
  Tenants_wl.drain p t;
  no_failures "backbone200_tenants" p;
  Alcotest.(check int) "three arrivals admitted" 3 t.Tenants_wl.admitted;
  Alcotest.(check bool) "the fluid model ticked" true (Probe.get p "scenario.fluid_ticks" > 0.0)

(* The workloads rebuild the library's replays to keep the engine in
   hand; for the same seed they must reproduce the library's numbers. *)
let replicas_match_library () =
  let p = Probe.create () in
  let mbps, _ = Deter_wl.tcp_row p ~iias_row:true ~seed:2001 ~seconds:1 in
  let lib = Vini_repro.Deter.iias_tcp ~runs:1 ~duration_s:1 ~seed:2001 () in
  close "IIAS Mb/s" lib.Vini_repro.Deter.mbps_mean mbps;
  let r = Deter_wl.ping_row p ~iias_row:false ~seed:3001 ~count:200 in
  let lib = Vini_repro.Deter.network_ping ~count:200 ~seed:3001 () in
  close "network ping avg" lib.Vini_repro.Deter.p_avg r.Deter_wl.p_avg;
  let before, after, detect, restored = Ospf_wl.fig8 p ~seed:9001 in
  let lib = Vini_repro.Abilene.fig8_run ~seed:9001 () in
  close "Fig. 8 before" lib.Vini_repro.Abilene.rtt_before before;
  close "Fig. 8 after" lib.Vini_repro.Abilene.rtt_after after;
  close "Fig. 8 detection" lib.Vini_repro.Abilene.detect_delay detect;
  close "Fig. 8 restored" lib.Vini_repro.Abilene.restore_rtt restored

let () =
  Alcotest.run "perfbench"
    [
      ( "metrics",
        [
          Alcotest.test_case "tail percentile rule" `Quick tail_rule;
          Alcotest.test_case "ratio metrics" `Quick ratios;
          Alcotest.test_case "sha256 vectors" `Quick sha256;
          Alcotest.test_case "names match BENCHMARK.json" `Quick names_match_benchmark_json;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "deter_table2 short operation" `Quick deter_short_op;
          Alcotest.test_case "ospf_reconverge short operation" `Quick ospf_short_op;
          Alcotest.test_case "backbone200_tenants short operation" `Quick tenants_short_op;
          Alcotest.test_case "replicas match the library" `Quick replicas_match_library;
        ] );
    ]
