(* ospf_reconverge: one operation is the §5.2 Abilene replay — Figure 8's
   ping and Figure 9's TCP transfer through the Denver–Kansas City
   failure and restore — followed by the same kind of experiment scaled
   up: IIAS with OSPF mirroring a seeded ~60-PoP generated backbone,
   converging cold and then reconverging around a seeded set of virtual
   link flaps.  The Abilene set-up follows [Vini_repro.Abilene] step for
   step (the tests check the replica against the library). *)

module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Graph = Vini_topo.Graph
module Slice = Vini_phys.Slice
module Underlay = Vini_phys.Underlay
module Iias = Vini_overlay.Iias
module Vini = Vini_core.Vini
module Experiment = Vini_core.Experiment
module Ping = Vini_measure.Ping
module Tcp = Vini_transport.Tcp
module Tcpdump = Vini_measure.Tcpdump
module Generate = Vini_scenario.Generate

type scale = { backbone_pops : int; flaps : int }

let full = { backbone_pops = 60; flaps = 2 }
let short = { backbone_pops = 12; flaps = 1 }

let warmup_s = 40.0
let fail_at = 10.0
let restore_at = 34.0
let pl_profile _ = Underlay.planetlab_profile ~speed_ghz:2.0

let finish p engine vini inst =
  Probe.harvest_engine p engine;
  Probe.harvest_underlay p (Vini.underlay vini);
  Probe.harvest_iias p (Vini.iias inst)

(* The Abilene mirror with the Denver–Kansas City failure timeline. *)
let abilene p ~seed =
  Probe.begin_setup p;
  let g = Probe.timed p "core.parse_s" Vini_repro.Abilene.topology in
  let id = Graph.id_of_name g in
  let denver = id "Denver" and kc = id "Kansas-City" in
  let flip up =
    Experiment.Custom
      ( (if up then "restore Denver-KC" else "fail Denver-KC"),
        fun iias -> Iias.set_vlink_state iias denver kc up )
  in
  let events =
    [ Experiment.at (warmup_s +. fail_at) (flip false);
      Experiment.at (warmup_s +. restore_at) (flip true) ]
  in
  let engine = Probe.new_engine ~seed in
  let vini, inst =
    Probe.timed p "core.create_s" (fun () ->
        let vini = Vini.create ~engine ~graph:g ~profile:pl_profile () in
        let routing =
          Iias.Ospf_routing
            { hello = Time.sec 5; dead = Time.sec 10; spf_delay = Time.ms 200 }
        in
        let spec =
          Experiment.make ~name:"abilene-mirror"
            ~slice:(Slice.pl_vini "abilene") ~vtopo:g ~routing ~events ()
        in
        (vini, Vini.deploy vini spec))
  in
  Probe.timed p "core.start_s" (fun () -> Vini.start inst);
  Probe.end_setup p;
  let iias = Vini.iias inst in
  let dc = Iias.vnode iias (id "Washington-DC")
  and sea = Iias.vnode iias (id "Seattle") in
  (engine, vini, inst, dc, sea)

let mean = function
  | [] -> 0.0
  | pts -> List.fold_left (fun a (_, r) -> a +. r) 0.0 pts /. float_of_int (List.length pts)

let fig8 p ~seed =
  let engine, vini, inst, dc, sea = abilene p ~seed in
  Probe.run p engine ~until:(Time.of_sec_f warmup_s);
  let total_s = 50.0 in
  let ping =
    Ping.start ~stack:(Iias.tap dc) ~dst:(Iias.tap_addr sea)
      ~count:(int_of_float (total_s *. 4.0))
      ~mode:(Ping.Interval (Time.ms 250)) ~reply_timeout:(Time.ms 900) ()
  in
  Probe.run p engine ~until:(Time.of_sec_f (warmup_s +. total_s +. 5.0));
  finish p engine vini inst;
  let series = List.map (fun (t, r) -> (t -. warmup_s, r)) (Ping.series ping) in
  let window a b = List.filter (fun (t, _) -> t >= a && t < b) series in
  let before = mean (window 0.0 fail_at) in
  let detect =
    match List.find_opt (fun (t, r) -> t > fail_at && r > before +. 8.0) series with
    | Some (t, _) -> t -. fail_at
    | None -> Float.nan
  in
  let after = mean (window (fail_at +. 10.0) restore_at) in
  let restored = mean (window (restore_at +. 8.0) total_s) in
  (* Figure 8 against the paper; detection must land inside the dead
     interval's (5, 10] s window plus one SPF hold-down and ping slot. *)
  Probe.band p "fig8.rtt_before_ms" ~paper:76.0 ~lo:68.4 ~hi:83.6 before;
  Probe.band p "fig8.rtt_after_ms" ~paper:93.0 ~lo:83.7 ~hi:102.3 after;
  Probe.band p "fig8.detect_s" ~paper:7.0 ~lo:5.0 ~hi:10.5 detect;
  Probe.band p "fig8.rtt_restored_ms" ~paper:76.0 ~lo:68.4 ~hi:83.6 restored;
  (before, after, detect, restored)

let fig9 p ~seed =
  let engine, vini, inst, dc, sea = abilene p ~seed in
  Probe.run p engine ~until:(Time.of_sec_f warmup_s);
  let rwnd = 32 * 1024 in
  let dump = Tcpdump.create engine in
  Tcp.listen ~stack:(Iias.tap sea) ~port:5001 ~rwnd
    ~on_accept:(fun conn -> Tcpdump.attach dump conn) ();
  let conn = Tcp.connect ~stack:(Iias.tap dc) ~dst:(Iias.tap_addr sea) ~dst_port:5001 ~rwnd () in
  Tcp.send_forever conn;
  let total_s = 50.0 in
  Probe.run p engine ~until:(Time.of_sec_f (warmup_s +. total_s));
  finish p engine vini inst;
  let cumulative =
    List.map (fun (t, b) -> (t -. warmup_s, float_of_int b /. 1e6)) (Tcpdump.cumulative_bytes dump)
  in
  let total_mb = match List.rev cumulative with (_, m) :: _ -> m | [] -> 0.0 in
  let rec last_before acc = function
    | (t, _) :: rest when t <= fail_at +. 1.0 -> last_before t rest
    | _ -> acc
  in
  let stall_start = last_before 0.0 cumulative in
  let stall_end =
    match List.find_opt (fun (t, _) -> t > stall_start +. 1.0) cumulative with
    | Some (t, _) -> t
    | None -> Float.nan
  in
  let s = Tcp.stats conn in
  Probe.harvest_tcp p ~bytes:s.Tcp.bytes_acked ~seconds:total_s
    ~retransmits:s.Tcp.retransmits ~timeouts:s.Tcp.timeouts;
  (* Figure 9: the stall starts at the failure and ends after detection
     and before the link returns; the paper's resume at 18 s is one RTO
     phase, ours another (EXPERIMENTS.md). *)
  Probe.band ~fidelity:false p "fig9.total_mb" ~paper:12.0 ~lo:8.4 ~hi:15.6 total_mb;
  Probe.band ~fidelity:false p "fig9.stall_start_s" ~paper:10.0 ~lo:9.0 ~hi:11.0 stall_start;
  Probe.band ~fidelity:false p "fig9.stall_end_s" ~paper:18.0 ~lo:15.0 ~hi:34.0 stall_end;
  (total_mb, stall_start, stall_end)

(* Every vnode's FIB entry towards every other vnode's tap address must
   be a neighbour on a shortest path of the live virtual graph. *)
let fib_violations g iias ~down =
  let is_down (l : Graph.link) =
    List.exists
      (fun (a, b) -> (l.Graph.a = a && l.Graph.b = b) || (l.Graph.a = b && l.Graph.b = a))
      down
  in
  let n = Graph.node_count g in
  let live =
    Graph.create
      ~names:(Array.init n (Graph.name g))
      ~links:(List.filter (fun l -> not (is_down l)) (Graph.links g))
  in
  let bad = ref 0 in
  for d = 0 to n - 1 do
    let dist, _ = Graph.dijkstra live d in
    let addr = Iias.tap_addr (Iias.vnode iias d) in
    for v = 0 to n - 1 do
      if v <> d then
        match Iias.fib_next iias v addr with
        | `Hop h -> (
            match Graph.find_link live v h with
            | Some l when dist.(v) = l.Graph.weight + dist.(h) -> ()
            | _ -> incr bad)
        | `Local | `No_route -> incr bad
    done
  done;
  !bad

let backbone p ~seed ~scale =
  Probe.begin_setup p;
  let gspec = { Generate.kind = Generate.backbone scale.backbone_pops; seed } in
  let g = Probe.timed p "scenario.generate_s" (fun () -> Generate.generate gspec) in
  let engine = Probe.new_engine ~seed in
  let vini, inst =
    Probe.timed p "core.create_s" (fun () ->
        let vini = Vini.create ~engine ~graph:g ~profile:pl_profile () in
        let spec = Experiment.mirror ~name:"backbone-mirror" ~slice:(Slice.pl_vini "bbm") ~graph:g () in
        (vini, Vini.deploy vini spec))
  in
  Probe.timed p "core.start_s" (fun () -> Vini.start inst);
  Probe.end_setup p;
  (* Routers exist once the overlay has started. *)
  let iias = Vini.iias inst in
  let last_spf = ref Time.zero in
  for v = 0 to Iias.vnode_count iias - 1 do
    Option.iter
      (fun o -> Vini_routing.Ospf.on_spf o (fun () -> last_spf := Engine.now engine))
      (Iias.ospf (Iias.vnode iias v))
  done;
  let settled what ~since ~down =
    let bad = fib_violations g iias ~down in
    Probe.check p what (bad = 0) (Printf.sprintf "%d FIB entries off a shortest path" bad);
    Probe.fpi p what bad;
    let s = Time.to_sec_f (Time.sub !last_spf since) in
    Probe.fp p (what ^ ".sim_s") s;
    s
  in
  Probe.run p engine ~until:(Time.sec 40);
  Probe.sample p "routing.converge_sim_s" (settled "backbone.converged" ~since:Time.zero ~down:[]);
  (* Flap links whose loss keeps the graph connected, so every pair stays
     reachable and "shortest path" stays defined. *)
  let rng = Vini_std.Rng.create seed in
  let links = Array.of_list (Graph.links g) in
  Vini_std.Rng.shuffle rng links;
  let bridge (l : Graph.link) =
    not
      (Graph.is_connected
         (Graph.create
            ~names:(Array.init (Graph.node_count g) (Graph.name g))
            ~links:(List.filter (fun x -> x != l) (Graph.links g))))
  in
  Array.to_seq links
  |> Seq.filter (fun l -> not (bridge l))
  |> Seq.take scale.flaps
  |> Seq.iter (fun (l : Graph.link) ->
         let a = l.Graph.a and b = l.Graph.b in
         let t_fail = Engine.now engine in
         Iias.set_vlink_state iias a b false;
         Probe.run p engine ~until:(Time.add t_fail (Time.sec 20));
         Probe.sample p "routing.reconverge_sim_s"
           (settled "backbone.failed" ~since:t_fail ~down:[ (a, b) ]);
         let t_up = Engine.now engine in
         Iias.set_vlink_state iias a b true;
         Probe.run p engine ~until:(Time.add t_up (Time.sec 15));
         Probe.sample p "routing.reconverge_sim_s"
           (settled "backbone.restored" ~since:t_up ~down:[]));
  finish p engine vini inst

let op ?(scale = full) p ~seed =
  ignore (fig8 p ~seed);
  ignore (fig9 p ~seed:(seed + 100));
  backbone p ~seed ~scale
