(* Tests for make-before-break live migration: zero-loss cutover proven
   by span drop forensics, clean rollback without substrate leaks, exact
   residual accounting when a rejected re-embed parks a vnode, the
   background defragmenter, and the migration-aware watchdog. *)

module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Graph = Vini_topo.Graph
module Underlay = Vini_phys.Underlay
module Slice = Vini_phys.Slice
module Iias = Vini_overlay.Iias
module Experiment = Vini_core.Experiment
module Vini = Vini_core.Vini
module Defrag = Vini_core.Defrag
module Substrate = Vini_embed.Substrate
module Embed = Vini_embed.Embed
module Request = Vini_embed.Request
module Migration = Vini_repro.Migration
module Ping = Vini_measure.Ping
module Watchdog = Vini_measure.Watchdog
module Trace = Vini_sim.Trace
module Sspan = Vini_sim.Span
module Mspan = Vini_measure.Span
module Tcp = Vini_transport.Tcp

let check = Alcotest.check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* A started 6-vnode ring auto-placed on Abilene, warmed up past OSPF
   convergence.  Returns the first spare (unused, up) physical node as
   the canonical migration target. *)
let ring_on_abilene ?(seed = 4242) ?(vnodes = 6) ?(cpu = 0.25) () =
  let g = Vini_rcc.Rcc.abilene () in
  let engine = Engine.create ~seed () in
  let profile _ = Underlay.planetlab_profile ~speed_ghz:2.0 in
  let vini = Vini.create ~engine ~graph:g ~profile () in
  let vtopo = Migration.virtual_ring vnodes in
  let req = Request.make ~name:"mig" ~cpu:(fun _ -> cpu) ~seed () in
  let spec =
    Experiment.make ~name:"mig" ~slice:(Slice.pl_vini "mig") ~vtopo
      ~placement:(Experiment.Auto req) ()
  in
  let inst = Vini.deploy vini spec in
  Vini.start inst;
  Engine.run ~until:(Time.sec 30) engine;
  let iias = Vini.iias inst in
  let emb = Iias.current_embedding iias in
  let spare =
    let used p = Array.exists (( = ) p) emb in
    let rec find p =
      if p >= Graph.node_count g then Alcotest.fail "no spare pnode"
      else if used p then find (p + 1)
      else p
    in
    find 0
  in
  (engine, g, vini, inst, iias, spare)

(* --- the tentpole: zero-loss cutover, proven by drop forensics ---------- *)

let test_zero_loss_cutover_forensics () =
  let engine, g, _vini, inst, iias, spare = ring_on_abilene () in
  let from_host = Iias.current_pnode iias 0 in
  (* Load the slice: pings to the vnode being moved, plus a steady
     (non-saturating) TCP stream terminating on it. *)
  let ping =
    Ping.start
      ~stack:(Iias.tap (Iias.vnode iias 3))
      ~dst:(Iias.tap_addr (Iias.vnode iias 0))
      ~count:40
      ~mode:(Ping.Interval (Time.ms 250))
      ~reply_timeout:(Time.ms 900) ()
  in
  Tcp.listen ~stack:(Iias.tap (Iias.vnode iias 0)) ~port:5001
    ~on_accept:(fun _ -> ())
    ();
  let conn =
    Tcp.connect
      ~stack:(Iias.tap (Iias.vnode iias 3))
      ~dst:(Iias.tap_addr (Iias.vnode iias 0))
      ~dst_port:5001 ()
  in
  Engine.every engine (Time.ms 500) (fun () ->
      Tcp.send conn 20_000;
      true);
  Engine.run ~until:(Time.sec 32) engine;
  (* Record spans only across the cutover window, so every Drop in the
     ring is attributable to it. *)
  let trace = Trace.create ~categories:[ Trace.Category.Span ] () in
  Trace.install trace;
  let recorder = Sspan.create ~capacity:65_536 () in
  Sspan.install recorder;
  (match Vini.migrate ~target:spare inst ~vnode:0 with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "solver declined an explicit target"
  | Error r -> Alcotest.failf "migrate: %s" (Embed.rejection_to_string r));
  check Alcotest.int "one move in flight" 1 (Vini.pending_migrations inst);
  Engine.run ~until:(Time.sec 36) engine;
  Sspan.uninstall ();
  Trace.uninstall ();
  check Alcotest.int "move settled" 0 (Vini.pending_migrations inst);
  check Alcotest.int "moved to the target" spare (Iias.current_pnode iias 0);
  (match Vini.migrations inst with
  | [ m ] ->
      check Alcotest.bool "planned kind" true (m.Vini.m_kind = Vini.Planned);
      check Alcotest.int "zero cutover loss" 0
        (Option.get m.Vini.m_cutover_loss);
      check (Alcotest.float 1e-9) "zero downtime" 0.0
        (Time.to_sec_f (Time.sub m.Vini.m_restored_at m.Vini.m_down_at))
  | ms -> Alcotest.failf "expected one migration record, got %d"
            (List.length ms));
  (* Drop forensics: no packet died at the migrated vnode's process on
     either machine during the window. *)
  let site_old = Printf.sprintf "mig/click@%s" (Graph.name g from_host) in
  let site_new = Printf.sprintf "mig/click@%s" (Graph.name g spare) in
  let guilty =
    List.filter
      (fun f ->
        contains f.Mspan.f_site site_old || contains f.Mspan.f_site site_new)
      (Mspan.forensics (Mspan.trees recorder))
  in
  check Alcotest.int "no drops at the migrated vnode" 0 (List.length guilty);
  Engine.run ~until:(Time.sec 50) engine;
  check Alcotest.int "every ping answered" (Ping.sent ping)
    (Ping.received ping);
  check Alcotest.bool "tcp kept flowing" true
    ((Tcp.stats conn).Tcp.bytes_acked > 0)

(* --- rollback: a move whose target dies pre-flip leaks nothing ---------- *)

let test_rollback_restores_accounts () =
  let engine, _g, vini, inst, iias, spare = ring_on_abilene () in
  let sub = Vini.substrate vini in
  let n = Graph.node_count (Substrate.graph sub) in
  let snapshot () = Array.init n (Substrate.node_used sub) in
  let before = snapshot () in
  let from_host = Iias.current_pnode iias 0 in
  (match Vini.migrate ~target:spare inst ~vnode:0 with
  | Ok true -> ()
  | _ -> Alcotest.fail "migrate should start");
  (* Double provisioning is live while the move is pending. *)
  check Alcotest.bool "target double-provisioned" true
    (Substrate.node_used sub spare > before.(spare) +. 1e-9);
  (* Kill the target machine before the 10 ms flip. *)
  Underlay.set_node_state (Vini.underlay vini) spare false;
  Engine.run ~until:(Time.sec 31) engine;
  check Alcotest.int "no move left in flight" 0
    (Vini.pending_migrations inst);
  check Alcotest.int "vnode stayed home" from_host
    (Iias.current_pnode iias 0);
  check Alcotest.int "no migration recorded" 0
    (List.length (Vini.migrations inst));
  (match Vini.migration_failures inst with
  | [ (0, reason) ] ->
      check Alcotest.bool "reason mentions the death" true
        (contains reason "died")
  | _ -> Alcotest.fail "expected one recorded rollback");
  let after = snapshot () in
  Array.iteri
    (fun p u ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "pnode %d accounts restored" p)
        before.(p) u)
    after;
  (* The slice is unharmed: a later move to another spare still works. *)
  Engine.run ~until:(Time.sec 40) engine;
  check Alcotest.int "no spurious reembeds" 0
    (List.length (Vini.reembed_failures inst))

let test_plan_rejection_is_structured () =
  let _engine, _g, _vini, inst, iias, _spare = ring_on_abilene () in
  (* An explicit target already hosting the slice is a structured
     rejection, not an exception — and changes nothing. *)
  let occupied = Iias.current_pnode iias 1 in
  (match Vini.migrate ~target:occupied inst ~vnode:0 with
  | Error (Embed.Pin_invalid _) -> ()
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error r -> Alcotest.failf "wrong rejection: %s"
                 (Embed.rejection_to_string r));
  check Alcotest.int "nothing in flight" 0 (Vini.pending_migrations inst)

(* A neighbour's host crashed under a committed slice: no candidate can
   reach it, so planning a move of vnode 0 is rejected with the first
   failure in candidate order — [Unreachable] on the dead vlink, unless a
   capacity-blocked vlink ranks first, as [Link_exhausted]. *)
let test_plan_move_with_crashed_neighbour_host () =
  let g = Vini_rcc.Rcc.abilene () in
  let under =
    Underlay.create ~engine:(Engine.create ~seed:7 ())
      ~rng:(Vini_std.Rng.create 7) ~graph:g ()
  in
  let sub = Substrate.of_underlay under in
  let vtopo = Migration.virtual_ring 6 in
  let bw = 1e8 in
  let req =
    Request.make ~cpu:(fun _ -> 0.25) ~bw:(fun _ -> bw) ~algo:Request.Online
      ~seed:7 ()
  in
  let m =
    match Embed.admit sub ~vtopo req with
    | Ok m -> m
    | Error r -> Alcotest.failf "admit: %s" (Embed.rejection_to_string r)
  in
  Underlay.set_node_state under m.Embed.nodes.(5) false;
  (match Embed.plan_move sub ~vtopo req m ~vnode:0 () with
  | Error (Embed.Unreachable { va = 0; vb = 5 }) -> ()
  | Ok _ -> Alcotest.fail "planned a move next to a dead host"
  | Error r ->
      Alcotest.failf "wrong rejection: %s" (Embed.rejection_to_string r));
  (* Leave every plink short of [bw]; only the paths vnode 0 gives back
     on moving can still carry its vlinks, so some candidate is
     capacity-blocked towards vnode 1's live host. *)
  List.iter
    (fun (l : Graph.link) ->
      let a = l.Graph.a and b = l.Graph.b in
      Substrate.reserve_path sub [ a; b ]
        (Substrate.link_residual sub a b -. (bw /. 2.0)))
    (Graph.links g);
  match Embed.plan_move sub ~vtopo req m ~vnode:0 () with
  | Error (Embed.Link_exhausted { va = 0; vb = 1; demand }) ->
      check (Alcotest.float 1.0) "demand" bw demand
  | Ok _ -> Alcotest.fail "planned a move next to a dead host"
  | Error r ->
      Alcotest.failf "wrong rejection: %s" (Embed.rejection_to_string r)

(* --- satellite 2: rejected re-embed parks the vnode, accounts exact ----- *)

let prop_rejected_reembed_restores_residuals =
  QCheck.Test.make
    ~name:"rejected re-embed parks the vnode and restores residuals exactly"
    ~count:6
    QCheck.(int_bound 1000)
    (fun salt ->
      let seed = 6000 + salt in
      let g = Vini_rcc.Rcc.abilene () in
      let engine = Engine.create ~seed () in
      let profile _ = Underlay.planetlab_profile ~speed_ghz:2.0 in
      let vini = Vini.create ~engine ~graph:g ~profile () in
      let vtopo = Migration.virtual_ring 4 in
      let req =
        Request.make ~name:"park" ~cpu:(fun _ -> 0.25) ~bw:(fun _ -> 1e8)
          ~seed ()
      in
      let spec =
        Experiment.make ~name:"park" ~slice:(Slice.pl_vini "park") ~vtopo
          ~placement:(Experiment.Auto req) ()
      in
      let inst = Vini.deploy vini spec in
      Vini.start inst;
      Engine.run ~until:(Time.sec 5) engine;
      let sub = Vini.substrate vini in
      let iias = Vini.iias inst in
      let emb = Iias.current_embedding iias in
      let n = Graph.node_count g in
      (* Squeeze every machine not hosting the slice so no re-embed target
         fits, then kill vnode 0's host for good. *)
      for p = 0 to n - 1 do
        if not (Array.exists (( = ) p) emb) then
          Substrate.reserve_node sub p (Substrate.node_residual sub p -. 0.1)
      done;
      let victim = emb.(0) in
      let survivors_used =
        Array.init n (fun p -> Substrate.node_used sub p)
      in
      Underlay.set_node_state (Vini.underlay vini) victim false;
      Engine.run ~until:(Time.sec 10) engine;
      let parked_ok = Vini.parked inst = [ 0 ] in
      let rejected_ok = List.length (Vini.reembed_failures inst) = 1 in
      (* Exactness: the books now hold the survivors' commitments plus the
         external squeeze — vnode 0's CPU share and its incident vlinks'
         bandwidth are gone, nothing else moved. *)
      let victim_ok =
        Float.abs
          (Substrate.node_used sub victim -. (survivors_used.(victim) -. 0.25))
        < 1e-9
      in
      let others_ok = ref true in
      for p = 0 to n - 1 do
        if p <> victim then
          others_ok :=
            !others_ok
            && Float.abs (Substrate.node_used sub p -. survivors_used.(p))
               < 1e-9
      done;
      (* Tear down: only the survivors' shares are withdrawn; all slice
         accounting must cancel to exactly the external squeeze. *)
      let external_ = Array.init n (fun p ->
          if Array.exists (( = ) p) emb then 0.0
          else Substrate.node_used sub p)
      in
      Vini.undeploy vini inst;
      let clean = ref true in
      for p = 0 to n - 1 do
        clean :=
          !clean
          && Float.abs (Substrate.node_used sub p -. external_.(p)) < 1e-9
      done;
      let links_clean =
        List.for_all
          (fun (l : Graph.link) ->
            Substrate.link_used sub l.Graph.a l.Graph.b < 1e-9)
          (Graph.links g)
      in
      parked_ok && rejected_ok && victim_ok && !others_ok && !clean
      && links_clean)

let test_parked_vnode_restored_on_reboot () =
  let g = Vini_rcc.Rcc.abilene () in
  let engine = Engine.create ~seed:77 () in
  let profile _ = Underlay.planetlab_profile ~speed_ghz:2.0 in
  let vini = Vini.create ~engine ~graph:g ~profile () in
  let vtopo = Migration.virtual_ring 4 in
  let req =
    Request.make ~name:"park2" ~cpu:(fun _ -> 0.25) ~bw:(fun _ -> 1e8)
      ~seed:77 ()
  in
  let spec =
    Experiment.make ~name:"park2" ~slice:(Slice.pl_vini "park2") ~vtopo
      ~placement:(Experiment.Auto req) ()
  in
  let inst = Vini.deploy vini spec in
  Vini.start inst;
  Engine.run ~until:(Time.sec 5) engine;
  let sub = Vini.substrate vini in
  let emb = Iias.current_embedding (Vini.iias inst) in
  Array.iteri
    (fun p _ ->
      if not (Array.exists (( = ) p) emb) then
        Substrate.reserve_node sub p (Substrate.node_residual sub p -. 0.1))
    (Array.make (Graph.node_count g) ());
  let victim = emb.(0) in
  Underlay.set_node_state (Vini.underlay vini) victim false;
  Engine.run ~until:(Time.sec 10) engine;
  check Alcotest.(list int) "parked" [ 0 ] (Vini.parked inst);
  let used_parked = Substrate.node_used sub victim in
  Underlay.set_node_state (Vini.underlay vini) victim true;
  Engine.run ~until:(Time.sec 20) engine;
  check Alcotest.(list int) "unparked after reboot" [] (Vini.parked inst);
  check (Alcotest.float 1e-9) "share recommitted" (used_parked +. 0.25)
    (Substrate.node_used sub victim)

(* --- the background defragmenter ---------------------------------------- *)

let defrag_scenario seed =
  let engine, _g, vini, inst, iias, _spare = ring_on_abilene ~seed () in
  let sub = Vini.substrate vini in
  (* External load turns vnode 0's host into the hottest machine. *)
  let hot = Iias.current_pnode iias 0 in
  Substrate.reserve_node sub hot 1.2;
  let before = Substrate.max_node_stress sub in
  let d = Defrag.attach ~period:(Time.sec 1) ~threshold:0.6 vini in
  Engine.run ~until:(Time.sec 45) engine;
  (engine, vini, inst, iias, d, hot, before)

let test_defrag_reduces_max_stress () =
  let _engine, vini, inst, iias, d, hot, before = defrag_scenario 4242 in
  let sub = Vini.substrate vini in
  check Alcotest.bool "a move was started" true (Defrag.moves_started d >= 1);
  check Alcotest.bool "stress reduced" true
    (Substrate.max_node_stress sub < before -. 1e-9);
  check Alcotest.bool "vnode lifted off the hot machine" true
    (Iias.current_pnode iias 0 <> hot);
  (match Vini.migrations inst with
  | m :: _ ->
      check Alcotest.bool "defrag move is planned" true
        (m.Vini.m_kind = Vini.Planned);
      check Alcotest.bool "balance improved in the record" true
        (m.Vini.m_balance_after < m.Vini.m_balance_before -. 1e-9)
  | [] -> Alcotest.fail "no migration recorded");
  (* The residual stress is the external reservation, which no move can
     relieve: having lifted everything movable, the defragmenter must
     retire rather than churn forever. *)
  check Alcotest.bool "retires once only external stress remains" true
    (Defrag.gave_up d)

let test_defrag_deterministic () =
  let final (_e, _vini, inst, iias, d, _hot, _before) =
    ( Array.to_list (Iias.current_embedding iias),
      List.map
        (fun (m : Vini.migration) -> (m.Vini.m_vnode, m.m_from, m.m_to))
        (Vini.migrations inst),
      Defrag.moves_started d )
  in
  let a = final (defrag_scenario 1234) and b = final (defrag_scenario 1234) in
  check Alcotest.bool "defrag runs are identical per seed" true (a = b)

let test_defrag_gives_up () =
  (* Stress that no move can relieve (external load only, nothing of the
     slice on the hot machine... and every alternative just as bad):
     squeeze every machine, so plan_move is rejected everywhere. *)
  let engine, g, vini, _inst, _iias, _spare = ring_on_abilene ~seed:99 () in
  let sub = Vini.substrate vini in
  for p = 0 to Graph.node_count g - 1 do
    Substrate.reserve_node sub p (Substrate.node_residual sub p -. 0.05)
  done;
  let d =
    Defrag.attach ~period:(Time.sec 1) ~threshold:0.5 ~budget:2 vini
  in
  Engine.run ~until:(Time.sec 60) engine;
  check Alcotest.bool "gave up" true (Defrag.gave_up d);
  check Alcotest.int "no moves" 0 (Defrag.moves_started d);
  check Alcotest.bool "stopped sweeping" true (not (Defrag.active d));
  let swept = Defrag.sweeps d in
  Engine.run ~until:(Time.sec 90) engine;
  check Alcotest.int "stays stopped" swept (Defrag.sweeps d)

(* --- satellite 1: the watchdog and the cutover window -------------------- *)

let watchdog_cutover_scenario ~migration_aware =
  let engine, _g, _vini, inst, iias, spare = ring_on_abilene ~seed:31 () in
  let vtopo = Migration.virtual_ring 6 in
  let wd =
    Watchdog.create ~engine ~overlay:iias ~vtopo ~migration_aware ()
  in
  (* A long drain keeps the FIB frozen while the IGP reconverges around a
     cost change — exactly the window that used to false-positive. *)
  (match Vini.migrate ~target:spare ~drain:(Time.sec 5) inst ~vnode:0 with
  | Ok true -> ()
  | _ -> Alcotest.fail "migrate should start");
  Engine.run ~until:(Time.of_sec_f 30.5) engine;
  check Alcotest.bool "inside the grace window" true
    (Iias.migration_grace iias 0);
  (* Reroute the ring mid-drain: vnode 0's RIB changes, its FIB is
     deliberately frozen. *)
  Iias.set_vlink_cost iias 2 3 4000;
  Engine.run ~until:(Time.sec 33) engine;
  Watchdog.sweep wd;
  let during = Watchdog.violation_count wd in
  (* Past drain-complete the FIB thawed and deferred changes replayed: a
     converged network again, for both flavours. *)
  Engine.run ~until:(Time.sec 50) engine;
  Watchdog.sweep wd;
  let after = Watchdog.violation_count wd - during in
  (during, after, Watchdog.counts_by_check wd)

let test_watchdog_false_positives_without_awareness () =
  (* The regression half: pre-fix behaviour (awareness off) alarms on the
     planned cutover. *)
  let during, _after, by_check =
    watchdog_cutover_scenario ~migration_aware:false
  in
  check Alcotest.bool "unaware watchdog alarms mid-cutover" true (during > 0);
  (* The deliberately frozen FIB plus a reconverged neighbour reads as a
     textbook micro-loop to a probe that doesn't know a cutover is on. *)
  check Alcotest.bool "as forwarding loops through the frozen FIB" true
    (List.mem_assoc "loop" by_check)

let test_watchdog_suppresses_during_migration () =
  let during, after, _ = watchdog_cutover_scenario ~migration_aware:true in
  check Alcotest.int "aware watchdog stays silent mid-cutover" 0 during;
  check Alcotest.int "and has nothing to report once drained" 0 after

(* --- seeded replay ------------------------------------------------------- *)

let test_planned_export_identical_across_runs () =
  let doc () =
    Vini_measure.Export.to_string
      (Migration.run_planned ~seed:4242 ~duration:15.0 ()).Migration.export
  in
  check Alcotest.string "same seed, same bytes" (doc ()) (doc ())

(* --- planned vs crash, property-style ------------------------------------ *)

let prop_planned_lossless_crash_has_downtime =
  QCheck.Test.make
    ~name:"planned moves are lossless; crash-driven ones cost downtime"
    ~count:4
    QCheck.(int_bound 1000)
    (fun salt ->
      let seed = 8000 + salt in
      let p = Migration.run_planned ~seed ~duration:12.0 () in
      let c = Migration.run ~seed ~duration:12.0 () in
      p.Migration.migrations <> []
      && List.for_all
           (fun (m : Vini.migration) ->
             m.Vini.m_kind = Vini.Planned
             && m.Vini.m_cutover_loss = Some 0
             && Time.compare m.Vini.m_down_at m.Vini.m_restored_at = 0)
           p.Migration.migrations
      && p.Migration.migration_failures = []
      && p.Migration.pings_sent = p.Migration.pings_received
      && c.Migration.migrations <> []
      && List.for_all
           (fun (m : Vini.migration) ->
             m.Vini.m_kind = Vini.Crash_driven
             && m.Vini.m_cutover_loss = None
             && Time.compare m.Vini.m_restored_at m.Vini.m_down_at > 0)
           c.Migration.migrations)

let suite =
  [
    Alcotest.test_case "zero-loss cutover (span forensics)" `Quick
      test_zero_loss_cutover_forensics;
    Alcotest.test_case "rollback restores substrate accounts" `Quick
      test_rollback_restores_accounts;
    Alcotest.test_case "plan rejection is structured" `Quick
      test_plan_rejection_is_structured;
    QCheck_alcotest.to_alcotest prop_rejected_reembed_restores_residuals;
    Alcotest.test_case "parked vnode restored on reboot" `Quick
      test_parked_vnode_restored_on_reboot;
    Alcotest.test_case "defrag reduces max stress" `Quick
      test_defrag_reduces_max_stress;
    Alcotest.test_case "defrag deterministic per seed" `Quick
      test_defrag_deterministic;
    Alcotest.test_case "defrag gives up cleanly" `Quick test_defrag_gives_up;
    Alcotest.test_case "watchdog false-positives without awareness" `Quick
      test_watchdog_false_positives_without_awareness;
    Alcotest.test_case "watchdog suppresses during migration" `Quick
      test_watchdog_suppresses_during_migration;
    Alcotest.test_case "planned export identical across runs" `Quick
      test_planned_export_identical_across_runs;
    QCheck_alcotest.to_alcotest prop_planned_lossless_crash_has_downtime;
    Alcotest.test_case "plan_move with a crashed neighbour host" `Quick
      test_plan_move_with_crashed_neighbour_host;
  ]
