(* Regression guards over the reproduction harness: quick, reduced-size
   versions of the headline experiments with assertions on the *shape*
   EXPERIMENTS.md promises.  If a refactor drifts the calibrated model,
   these fail before the full bench does. *)

module Deter = Vini_repro.Deter
module Planetlab = Vini_repro.Planetlab
module Abilene = Vini_repro.Abilene

let check = Alcotest.check

let test_deter_ping_shape () =
  let net = Deter.network_ping ~count:1000 () in
  let iias = Deter.iias_ping ~count:1000 () in
  (* Table 3's shape: LAN RTT ~0.4 ms; the overlay adds 0.05-0.3 ms. *)
  check Alcotest.bool
    (Printf.sprintf "network avg ~0.41 (%.3f)" net.Deter.p_avg)
    true
    (net.Deter.p_avg > 0.35 && net.Deter.p_avg < 0.48);
  let delta = iias.Deter.p_avg -. net.Deter.p_avg in
  check Alcotest.bool
    (Printf.sprintf "overlay penalty ~0.13 ms (%.3f)" delta)
    true
    (delta > 0.05 && delta < 0.3);
  check (Alcotest.float 0.001) "no loss either way" 0.0
    (net.Deter.p_loss_pct +. iias.Deter.p_loss_pct)

let test_deter_tcp_shape () =
  let net = Deter.network_tcp ~runs:1 ~duration_s:2 () in
  let iias = Deter.iias_tcp ~runs:1 ~duration_s:2 () in
  (* Table 2's shape: kernel near line rate, Click CPU-bound near 1/5. *)
  check Alcotest.bool
    (Printf.sprintf "network near line rate (%.0f)" net.Deter.mbps_mean)
    true
    (net.Deter.mbps_mean > 850.0 && net.Deter.mbps_mean < 1000.0);
  check Alcotest.bool
    (Printf.sprintf "iias CPU-bound (%.0f)" iias.Deter.mbps_mean)
    true
    (iias.Deter.mbps_mean > 150.0 && iias.Deter.mbps_mean < 260.0);
  let ratio = net.Deter.mbps_mean /. iias.Deter.mbps_mean in
  check Alcotest.bool
    (Printf.sprintf "~5x gap (%.1f)" ratio)
    true (ratio > 3.5 && ratio < 6.5);
  check Alcotest.bool "click busy" true (iias.Deter.fwdr_cpu_pct > 70.0)

let test_planetlab_ordering () =
  (* Table 4's ordering must always hold: default < plvini <= network. *)
  let t c = (Planetlab.tcp c ~runs:1 ~duration_s:3 ()).Planetlab.mbps_mean in
  let net = t Planetlab.Network in
  let dflt = t Planetlab.Iias_default in
  let plv = t Planetlab.Iias_plvini in
  check Alcotest.bool
    (Printf.sprintf "default (%.1f) << plvini (%.1f)" dflt plv)
    true
    (dflt < plv /. 1.8);
  check Alcotest.bool
    (Printf.sprintf "plvini (%.1f) near network (%.1f)" plv net)
    true
    (plv > net *. 0.75 && plv <= net *. 1.02)

let test_planetlab_ping_ordering () =
  let p c = Planetlab.ping c ~count:2000 () in
  let net = p Planetlab.Network in
  let dflt = p Planetlab.Iias_default in
  let plv = p Planetlab.Iias_plvini in
  (* Table 5's shape: default share inflates avg ~3 ms, PL-VINI < 1 ms. *)
  check Alcotest.bool "default inflated" true (dflt.Planetlab.p_avg > net.Planetlab.p_avg +. 1.0);
  check Alcotest.bool "plvini tight" true (plv.Planetlab.p_avg < net.Planetlab.p_avg +. 1.0);
  check Alcotest.bool "plvini mdev tiny" true
    (plv.Planetlab.p_mdev < dflt.Planetlab.p_mdev /. 4.0)

let test_fig6_knee () =
  (* Loss must be ~0 at low rate and substantial at 40 Mb/s on the default
     share, and ~0 everywhere under PL-VINI. *)
  let d =
    Planetlab.loss_sweep Planetlab.Iias_default ~rates_mbps:[ 2.0; 40.0 ]
      ~duration_s:5 ()
  in
  let p =
    Planetlab.loss_sweep Planetlab.Iias_plvini ~rates_mbps:[ 2.0; 40.0 ]
      ~duration_s:5 ()
  in
  (match d with
  | [ (_, low); (_, high) ] ->
      check Alcotest.bool (Printf.sprintf "low rate clean (%.2f%%)" low) true
        (low < 2.0);
      check Alcotest.bool (Printf.sprintf "high rate lossy (%.2f%%)" high) true
        (high > 5.0)
  | _ -> Alcotest.fail "two points expected");
  List.iter
    (fun (rate, loss) ->
      check Alcotest.bool
        (Printf.sprintf "plvini clean at %.0f (%.2f%%)" rate loss)
        true (loss < 1.0))
    p

let test_fig8_shape () =
  let r = Abilene.fig8_run ~ping_interval_ms:500 () in
  check Alcotest.bool
    (Printf.sprintf "before ~78 (%.1f)" r.Abilene.rtt_before)
    true
    (r.Abilene.rtt_before > 75.0 && r.Abilene.rtt_before < 82.0);
  check Alcotest.bool
    (Printf.sprintf "backup ~95 (%.1f)" r.rtt_after)
    true
    (r.rtt_after > 91.0 && r.rtt_after < 99.0);
  check Alcotest.bool
    (Printf.sprintf "detected in (5,11] s (%.1f)" r.detect_delay)
    true
    (r.detect_delay > 5.0 && r.detect_delay <= 11.0);
  check Alcotest.bool "restored to primary" true
    (Float.abs (r.restore_rtt -. r.rtt_before) < 1.5)

let test_fig9_shape () =
  let r = Abilene.fig9_run () in
  check Alcotest.bool
    (Printf.sprintf "total ~12 MB (%.1f)" r.Abilene.total_mb)
    true
    (r.Abilene.total_mb > 8.0 && r.Abilene.total_mb < 18.0);
  check Alcotest.bool "stalls at the failure" true
    (r.stall_start > 9.0 && r.stall_start < 11.5);
  check Alcotest.bool
    (Printf.sprintf "resumes after reroute (%.1f)" r.stall_end)
    true
    (r.stall_end > 15.0 && r.stall_end < 30.0)

let test_upcalls () =
  let u1, u2 = Abilene.upcall_demo () in
  check Alcotest.int "exp1 both transitions" 2 u1;
  check Alcotest.int "exp2 both transitions" 2 u2

let test_expected_paths () =
  let primary, backup = Abilene.expected_paths () in
  check Alcotest.int "primary hops" 7 (List.length primary);
  check Alcotest.int "backup hops" 6 (List.length backup);
  check Alcotest.string "primary via Denver" "Denver"
    (List.nth primary 5);
  check Alcotest.bool "backup avoids Denver" true
    (not (List.mem "Denver" backup))

let test_trace_overhead () =
  (* The ISSUE acceptance bar: running Table 2's IIAS experiment with every
     trace category enabled must change throughput by < 10%.  Tracing draws
     no randomness and schedules no events, so the simulated result should
     in fact be bit-identical. *)
  let module Trace = Vini_sim.Trace in
  let baseline = Deter.iias_tcp ~runs:1 ~duration_s:1 () in
  let tr = Trace.create ~capacity:4096 ~categories:Trace.Category.all () in
  Trace.install tr;
  let traced =
    Fun.protect ~finally:Trace.uninstall (fun () ->
        Deter.iias_tcp ~runs:1 ~duration_s:1 ())
  in
  check Alcotest.bool "trace recorded events" true (Trace.length tr > 0);
  let rel =
    Float.abs (traced.Deter.mbps_mean -. baseline.Deter.mbps_mean)
    /. baseline.Deter.mbps_mean
  in
  check Alcotest.bool
    (Printf.sprintf "throughput within 10%% (%.0f vs %.0f, rel %.4f)"
       traced.Deter.mbps_mean baseline.Deter.mbps_mean rel)
    true (rel < 0.10);
  (* And a disabled-category sink records nothing. *)
  let quiet = Trace.create ~categories:[] () in
  Trace.install quiet;
  let _ =
    Fun.protect ~finally:Trace.uninstall (fun () ->
        Deter.iias_tcp ~runs:1 ~duration_s:1 ())
  in
  check Alcotest.int "disabled categories record nothing" 0 (Trace.length quiet)

(* Schedule pin.  A short seeded Table 2 row, set up exactly as
   [Deter.tcp_run] sets it up, must reproduce the event count, plink
   packet count and throughput recorded when this test was written.  An
   engine or transport change that reorders events — even one that keeps
   every shape test above green — fails here instead of silently shifting
   the published numbers.  Update the pins only for a deliberate model
   change, and say so. *)
let pinned_tcp_row ~iias ~seed =
  let module Engine = Vini_sim.Engine in
  let module Time = Vini_sim.Time in
  let module Datasets = Vini_topo.Datasets in
  let module Underlay = Vini_phys.Underlay in
  let module Iias = Vini_overlay.Iias in
  let engine = Engine.create ~seed () in
  let underlay =
    Underlay.create ~engine
      ~rng:(Vini_std.Rng.split (Engine.rng engine))
      ~graph:(Datasets.Deter.topology ()) ()
  in
  let client, server =
    if iias then begin
      let overlay =
        Iias.create ~underlay ~slice:(Vini_phys.Slice.pl_vini "iias")
          ~vtopo:(Datasets.Deter.topology ()) ~embedding:Fun.id ()
      in
      Iias.start overlay;
      let v = Iias.vnode overlay in
      (Iias.tap (v Datasets.Deter.src), Iias.tap (v Datasets.Deter.sink))
    end
    else
      let n = Underlay.node underlay in
      ( Vini_phys.Pnode.stack (n Datasets.Deter.src),
        Vini_phys.Pnode.stack (n Datasets.Deter.sink) )
  in
  let start = Time.sec 25 and warmup = Time.sec 2 in
  let duration = Time.sec 1 in
  let run =
    Vini_measure.Iperf.tcp ~client ~server ~warmup ~start ~duration ()
  in
  Engine.run ~until:(Time.add (Time.add start warmup) duration) engine;
  let graph = Underlay.graph underlay in
  let plink_sent =
    List.fold_left
      (fun acc (l : Vini_topo.Graph.link) ->
        let p = Underlay.plink underlay l.Vini_topo.Graph.a l.Vini_topo.Graph.b in
        acc
        + (Vini_phys.Plink.stats p ~dir:0).Vini_phys.Plink.sent
        + (Vini_phys.Plink.stats p ~dir:1).Vini_phys.Plink.sent)
      0 (Vini_topo.Graph.links graph)
  in
  (Engine.events_fired engine, plink_sent, Vini_measure.Iperf.tcp_mbps run)

let test_schedule_pin () =
  let pin name ~iias ~seed ~events ~pkts ~mbps =
    let e, p, m = pinned_tcp_row ~iias ~seed in
    check Alcotest.int (name ^ " events fired") events e;
    check Alcotest.int (name ^ " plink packets") pkts p;
    check Alcotest.string (name ^ " Mb/s") mbps (Printf.sprintf "%.6f" m)
  in
  pin "network" ~iias:false ~seed:1001 ~events:3167178 ~pkts:1055825
    ~mbps:"913.700256";
  pin "iias" ~iias:true ~seed:2001 ~events:969935 ~pkts:208767
    ~mbps:"193.959816"

let suite =
  [
    Alcotest.test_case "deter ping shape (Table 3)" `Slow test_deter_ping_shape;
    Alcotest.test_case "deter tcp shape (Table 2)" `Slow test_deter_tcp_shape;
    Alcotest.test_case "planetlab tcp ordering (Table 4)" `Slow test_planetlab_ordering;
    Alcotest.test_case "planetlab ping ordering (Table 5)" `Slow test_planetlab_ping_ordering;
    Alcotest.test_case "figure 6 knee" `Slow test_fig6_knee;
    Alcotest.test_case "figure 8 shape" `Slow test_fig8_shape;
    Alcotest.test_case "figure 9 shape" `Slow test_fig9_shape;
    Alcotest.test_case "upcalls (§6.1)" `Quick test_upcalls;
    Alcotest.test_case "figure 7 paths" `Quick test_expected_paths;
    Alcotest.test_case "trace overhead < 10% (§ISSUE)" `Slow test_trace_overhead;
    Alcotest.test_case "deter tcp schedule pin" `Quick test_schedule_pin;
  ]
