(* Tests for the capacity-aware slice embedding engine: both solvers,
   admission control and its structured rejections, the never-oversubscribe
   property, and crash-driven re-embedding end to end. *)

module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Graph = Vini_topo.Graph
module Underlay = Vini_phys.Underlay
module Slice = Vini_phys.Slice
module Iias = Vini_overlay.Iias
module Experiment = Vini_core.Experiment
module Vini = Vini_core.Vini
module Substrate = Vini_embed.Substrate
module Embed = Vini_embed.Embed
module Request = Vini_embed.Request
module Migration = Vini_repro.Migration
module Ping = Vini_measure.Ping
module Export = Vini_measure.Export

let check = Alcotest.check

let link ?(bw = 1e9) ?(w = 1) a b =
  { Graph.a; b; bandwidth_bps = bw; delay = Time.ms 1; loss = 0.0; weight = w }

let abilene () = Vini_rcc.Rcc.abilene ()

let solve_ok sub ~vtopo req =
  match Embed.solve sub ~vtopo req with
  | Ok m -> m
  | Error r -> Alcotest.failf "solve rejected: %s" (Embed.rejection_to_string r)

let admit_ok sub ~vtopo req =
  match Embed.admit sub ~vtopo req with
  | Ok m -> m
  | Error r -> Alcotest.failf "admit rejected: %s" (Embed.rejection_to_string r)

(* --- solvers ------------------------------------------------------------ *)

let test_greedy_places_ring () =
  let sub = Substrate.of_graph (abilene ()) in
  let vtopo = Migration.virtual_ring 6 in
  let req = Request.make ~cpu:(fun _ -> 0.25) ~bw:(fun _ -> 1e8) () in
  let m = solve_ok sub ~vtopo req in
  let distinct = List.sort_uniq compare (Array.to_list m.Embed.nodes) in
  check Alcotest.int "injective" 6 (List.length distinct);
  check Alcotest.int "one path per vlink" (Graph.link_count vtopo)
    (List.length m.Embed.vpaths);
  check Alcotest.bool "mapping validates" true
    (Embed.check sub ~vtopo req m = Ok ());
  (* [solve] is pure: nothing was reserved yet. *)
  check (Alcotest.float 0.0) "solve reserves nothing" 0.0
    (Substrate.node_used sub m.Embed.nodes.(0));
  Embed.commit sub ~vtopo req m;
  Array.iter
    (fun p ->
      check (Alcotest.float 1e-9) "cpu reserved" 0.25
        (Substrate.node_used sub p))
    m.Embed.nodes;
  Embed.withdraw sub ~vtopo req m;
  Array.iter
    (fun p ->
      check (Alcotest.float 1e-9) "cpu released" 0.0
        (Substrate.node_used sub p))
    m.Embed.nodes;
  List.iter
    (fun (l : Graph.link) ->
      check (Alcotest.float 1e-9) "bw released" 0.0
        (Substrate.link_used sub l.Graph.a l.Graph.b))
    (Graph.links (Substrate.graph sub))

let test_online_deterministic () =
  let vtopo = Migration.virtual_ring 5 in
  let solve seed =
    let sub = Substrate.of_graph (abilene ()) in
    (* Asymmetric pre-load, so congestion pricing has something to see. *)
    Substrate.reserve_node sub 0 0.5;
    Substrate.reserve_node sub 1 0.25;
    solve_ok sub ~vtopo
      (Request.make ~algo:Request.Online
         ~cpu:(fun _ -> 0.3)
         ~bw:(fun _ -> 1e8)
         ~seed ())
  in
  let m1 = solve 7 and m2 = solve 7 in
  check
    Alcotest.(list int)
    "same seed, same placement"
    (Array.to_list m1.Embed.nodes)
    (Array.to_list m2.Embed.nodes);
  check Alcotest.bool "same seed, same paths" true
    (m1.Embed.vpaths = m2.Embed.vpaths)

(* --- structured rejections ---------------------------------------------- *)

let test_structured_rejections () =
  let small =
    Graph.create
      ~names:[| "a"; "b"; "c"; "d" |]
      ~links:[ link 0 1; link 1 2; link 2 3; link 3 0 ]
  in
  let sub = Substrate.of_graph small in
  (match Embed.solve sub ~vtopo:(Migration.virtual_ring 6) (Request.make ()) with
  | Error (Embed.Too_large { vnodes = 6; pnodes = 4 }) -> ()
  | _ -> Alcotest.fail "expected Too_large");
  (match
     Embed.solve sub ~vtopo:(Migration.virtual_ring 3)
       (Request.make ~cpu:(fun _ -> 2.0) ())
   with
  | Error (Embed.Node_exhausted { demand; best_residual; _ }) ->
      check (Alcotest.float 1e-9) "demand" 2.0 demand;
      check (Alcotest.float 1e-9) "best residual on offer" 1.0 best_residual
  | _ -> Alcotest.fail "expected Node_exhausted");
  (match
     Embed.solve sub ~vtopo:(Migration.virtual_ring 3)
       (Request.make ~pins:[ (0, 99) ] ())
   with
  | Error (Embed.Pin_invalid { vnode = 0; pnode = 99; _ }) -> ()
  | _ -> Alcotest.fail "expected Pin_invalid");
  let pair = Graph.create ~names:[| "v0"; "v1" |] ~links:[ link 0 1 ] in
  let thin =
    Substrate.of_graph
      (Graph.create ~names:[| "a"; "b" |] ~links:[ link ~bw:1e6 0 1 ])
  in
  (match
     Embed.solve thin ~vtopo:pair
       (Request.make ~bw:(fun _ -> 1e7) ~pins:[ (0, 0); (1, 1) ] ())
   with
  | Error (Embed.Link_exhausted { demand; _ }) ->
      check (Alcotest.float 1.0) "bw demand" 1e7 demand
  | _ -> Alcotest.fail "expected Link_exhausted");
  let split =
    Substrate.of_graph
      (Graph.create ~names:[| "a"; "b"; "c"; "d" |] ~links:[ link 0 1; link 2 3 ])
  in
  (match
     Embed.solve split ~vtopo:pair
       (Request.make ~pins:[ (0, 0); (1, 2) ] ())
   with
  | Error (Embed.Unreachable { va = 0; vb = 1 }) -> ()
  | _ -> Alcotest.fail "expected Unreachable");
  check Alcotest.string "stable kind tag" "node_exhausted"
    (Embed.rejection_kind
       (Embed.Node_exhausted { vnode = 0; demand = 1.0; best_residual = 0.0 }))

(* --- admission control --------------------------------------------------- *)

let test_admission_sequence () =
  (* 11 Abilene sites at 1.0 core each, 6 vnodes at 0.6: exactly one slice
     fits, the rest bounce — and the books balance. *)
  let sub = Substrate.of_graph (abilene ()) in
  let vtopo = Migration.virtual_ring 6 in
  for i = 0 to 9 do
    ignore
      (Embed.admit sub ~vtopo
         (Request.make
            ~name:(Printf.sprintf "s%d" i)
            ~cpu:(fun _ -> 0.6)
            ()))
  done;
  check Alcotest.int "one admitted" 1 (Substrate.admitted sub);
  check Alcotest.int "nine rejected" 9 (Substrate.rejected sub);
  check (Alcotest.float 1e-9) "acceptance rate" 0.1
    (Substrate.acceptance_rate sub);
  List.iter
    (fun p ->
      check Alcotest.bool "never oversubscribed" true
        (Substrate.node_used sub p <= Substrate.node_capacity sub p +. 1e-9))
    (Graph.nodes (Substrate.graph sub))

let test_reembed_pins_survivors () =
  let sub = Substrate.of_graph (abilene ()) in
  let vtopo = Migration.virtual_ring 4 in
  let req = Request.make ~cpu:(fun _ -> 0.25) ~bw:(fun _ -> 1e8) () in
  let m = admit_ok sub ~vtopo req in
  let old_host = m.Embed.nodes.(2) in
  (* Displace vnode 2: withdraw the slice and squeeze its old host so it no
     longer fits there. *)
  Embed.withdraw sub ~vtopo req m;
  Substrate.reserve_node sub old_host 0.9;
  (match Embed.reembed sub ~vtopo req m ~vnode:2 with
  | Error r -> Alcotest.failf "reembed: %s" (Embed.rejection_to_string r)
  | Ok m' ->
      Array.iteri
        (fun v p ->
          if v <> 2 then
            check Alcotest.int "survivor never moves" p m'.Embed.nodes.(v))
        m.Embed.nodes;
      check Alcotest.bool "displaced vnode moved" true
        (m'.Embed.nodes.(2) <> old_host))

(* --- the never-oversubscribe property ------------------------------------ *)

let prop_solvers_respect_capacity =
  QCheck.Test.make ~name:"solvers never oversubscribe the substrate"
    ~count:80
    QCheck.(
      quad (int_range 4 10) (int_range 2 6) (int_bound 1000) bool)
    (fun (np, nv, seed, online) ->
      (* qcheck's int_range shrinker can leave the range; clamp instead of
         raising so shrink artifacts don't mask the real counterexample. *)
      let np = max 4 (min 10 np) and nv = max 2 (min 6 nv) in
      let seed = abs seed in
      let g =
        Vini_topo.Datasets.waxman ~rng:(Vini_std.Rng.create (seed + 17)) ~n:np ()
      in
      let sub = Substrate.of_graph g in
      let vtopo = Migration.virtual_ring nv in
      let rng = Vini_std.Rng.create seed in
      let algo = if online then Request.Online else Request.Greedy in
      (* An arrival sequence that collectively oversubscribes: some slices
         must bounce, none may push usage past capacity. *)
      for i = 0 to 7 do
        let cpu = 0.1 +. (0.05 *. float_of_int (Vini_std.Rng.int rng 10)) in
        let bw = 1e7 *. float_of_int (Vini_std.Rng.int rng 30) in
        ignore
          (Embed.admit sub ~vtopo
             (Request.make
                ~name:(Printf.sprintf "s%d" i)
                ~cpu:(fun _ -> cpu)
                ~bw:(fun _ -> bw)
                ~algo ~seed:i ()))
      done;
      let eps = 1e-6 in
      List.for_all
        (fun p ->
          Substrate.node_used sub p <= Substrate.node_capacity sub p +. eps)
        (Graph.nodes g)
      && List.for_all
           (fun (l : Graph.link) ->
             Substrate.link_used sub l.Graph.a l.Graph.b
             <= Substrate.link_capacity sub l.Graph.a l.Graph.b +. eps)
           (Graph.links g))

(* --- equivalence with per-candidate pricing ------------------------------- *)

(* The online pricing as a direct, slow oracle: a fresh early-exit
   constrained Dijkstra from every candidate host to every placed
   neighbour's host, against the same residual snapshot the solver
   takes.  The solver prices every candidate from one search per
   neighbour; the property below checks that it chooses exactly what
   this oracle chooses. *)
module Per_candidate = struct
  module Rng = Vini_std.Rng

  let eps = 1e-9
  let alpha = 8.0
  let key a b = (min a b, max a b)

  type st = {
    sub : Substrate.t;
    sg : Graph.t;
    nres : float array;
    lres : (int * int, float) Hashtbl.t;
  }

  let snapshot sub =
    let sg = Substrate.graph sub in
    let lres = Hashtbl.create 64 in
    List.iter
      (fun (l : Graph.link) ->
        Hashtbl.replace lres (key l.Graph.a l.Graph.b)
          (Substrate.link_residual sub l.Graph.a l.Graph.b))
      (Graph.links sg);
    {
      sub;
      sg;
      nres = Array.init (Graph.node_count sg) (Substrate.node_residual sub);
      lres;
    }

  let residual st a b =
    Option.value ~default:0.0 (Hashtbl.find_opt st.lres (key a b))

  let distance st ~weight ~need src dst =
    let n = Graph.node_count st.sg in
    let dist = Array.make n infinity and visited = Array.make n false in
    dist.(src) <- 0.0;
    let heap =
      Vini_std.Heap.create ~cmp:(fun (d1, n1) (d2, n2) ->
          let c = Float.compare d1 d2 in
          if c <> 0 then c else compare n1 n2)
    in
    Vini_std.Heap.push heap (0.0, src);
    let rec loop () =
      match Vini_std.Heap.pop heap with
      | None -> ()
      | Some (_, u) when u = dst -> ()
      | Some (_, u) when visited.(u) -> loop ()
      | Some (_, u) ->
          visited.(u) <- true;
          List.iter
            (fun (v, l) ->
              if
                (not visited.(v))
                && Substrate.node_up st.sub v
                && Substrate.link_up st.sub u v
                && residual st u v +. eps >= need
              then begin
                let d = dist.(u) +. weight l in
                if d < dist.(v) then begin
                  dist.(v) <- d;
                  Vini_std.Heap.push heap (d, v)
                end
              end)
            (Graph.neighbors st.sg u);
          loop ()
    in
    loop ();
    if dist.(dst) = infinity then None else Some dist.(dst)

  let congestion_weight st ~bw (l : Graph.link) =
    let a = l.Graph.a and b = l.Graph.b in
    let cap = Substrate.link_capacity st.sub a b in
    if cap <= 0.0 then 1.0
    else
      let used = cap -. residual st a b in
      1.0 +. (alpha ** ((used +. bw) /. cap)) -. (alpha ** (used /. cap))

  (* [nbrs]: (vlink ends named by a rejection, neighbour's host, bw). *)
  let pick st (req : Request.t) ~vnode ~dem ~used nbrs =
    let cands = ref [] and best_res = ref 0.0 and any_cap = ref false in
    let cap_blocked = ref None and live_blocked = ref None in
    for p = 0 to Graph.node_count st.sg - 1 do
      if Substrate.node_up st.sub p && not used.(p) then begin
        if st.nres.(p) > !best_res then best_res := st.nres.(p);
        if st.nres.(p) +. eps >= dem then begin
          any_cap := true;
          let cap = Substrate.node_capacity st.sub p in
          let ncost =
            if cap <= 0.0 then infinity
            else
              let u0 = cap -. st.nres.(p) in
              (alpha ** ((u0 +. dem) /. cap)) -. (alpha ** (u0 /. cap))
          in
          let feasible = ref true and pcost = ref 0.0 in
          List.iter
            (fun (ends, host, bw) ->
              if !feasible then
                match
                  distance st ~weight:(congestion_weight st ~bw) ~need:bw p host
                with
                | Some d -> pcost := !pcost +. d
                | None ->
                    feasible := false;
                    if
                      distance st ~weight:(fun _ -> 1.0) ~need:0.0 p host
                      <> None
                    then begin
                      if !cap_blocked = None then cap_blocked := Some (ends, bw)
                    end
                    else if !live_blocked = None then live_blocked := Some ends)
            nbrs;
          if !feasible then cands := (ncost +. !pcost, p) :: !cands
        end
      end
    done;
    match (List.rev !cands, !any_cap, !cap_blocked, !live_blocked) with
    | [], false, _, _ ->
        Error
          (Embed.Node_exhausted
             { vnode; demand = dem; best_residual = !best_res })
    | [], true, Some ((va, vb), bw), _ ->
        Error (Embed.Link_exhausted { va; vb; demand = bw })
    | [], true, None, Some (va, vb) -> Error (Embed.Unreachable { va; vb })
    | [], true, None, None -> assert false
    | cands, _, _, _ ->
        let minc =
          List.fold_left (fun acc (c, _) -> Float.min acc c) infinity cands
        in
        let ties =
          List.filter
            (fun (c, _) -> c -. minc <= 1e-9 *. (1.0 +. Float.abs minc))
            cands
        in
        let k = List.length ties in
        Ok (snd (List.nth ties ((((req.Request.seed + vnode) mod k) + k) mod k)))

  (* Online [solve] for pin-free requests: place here, then let the
     solver route the placement by pinning every vnode to it. *)
  let solve sub ~vtopo (req : Request.t) =
    let st = snapshot sub in
    let vn = Graph.node_count vtopo and pn = Graph.node_count st.sg in
    let up = List.length (List.filter (Substrate.node_up sub) (Graph.nodes st.sg)) in
    if vn > up then Error (Embed.Too_large { vnodes = vn; pnodes = up })
    else
      let nodes = Array.make vn (-1) and used = Array.make pn false in
      let rec place v =
        if v = vn then
          Embed.solve sub ~vtopo
            { req with Request.pins = List.mapi (fun v p -> (v, p)) (Array.to_list nodes) }
        else
          let dem = req.Request.cpu_demand v in
          let nbrs =
            List.filter_map
              (fun (u, vl) ->
                if nodes.(u) >= 0 then
                  Some ((v, u), nodes.(u), req.Request.bw_demand vl)
                else None)
              (Graph.neighbors vtopo v)
          in
          match pick st req ~vnode:v ~dem ~used nbrs with
          | Error r -> Error r
          | Ok p ->
              nodes.(v) <- p;
              used.(p) <- true;
              st.nres.(p) <- st.nres.(p) -. dem;
              place (v + 1)
      in
      place 0

  (* [plan_move] without a target: credit the mover's share back, pick
     here, then let the planner route the pick as an explicit target. *)
  let plan_move sub ~vtopo (req : Request.t) (m : Embed.mapping) ~vnode =
    let st = snapshot sub in
    let dem = req.Request.cpu_demand vnode in
    let home = m.Embed.nodes.(vnode) in
    st.nres.(home) <- st.nres.(home) +. dem;
    List.iter
      (fun ((va, vb), path) ->
        if va = vnode || vb = vnode then
          match Graph.find_link vtopo va vb with
          | Some l when req.Request.bw_demand l > 0.0 ->
              let bw = req.Request.bw_demand l in
              let rec credit = function
                | a :: (b :: _ as rest) ->
                    Hashtbl.replace st.lres (key a b) (residual st a b +. bw);
                    credit rest
                | [ _ ] | [] -> ()
              in
              credit path
          | _ -> ())
      m.Embed.vpaths;
    let used = Array.make (Graph.node_count st.sg) false in
    Array.iteri (fun v p -> if v <> vnode then used.(p) <- true) m.Embed.nodes;
    let nbrs =
      List.map
        (fun (u, vl) -> (key vnode u, m.Embed.nodes.(u), req.Request.bw_demand vl))
        (List.sort (fun (a, _) (b, _) -> compare a b) (Graph.neighbors vtopo vnode))
    in
    match pick st req ~vnode ~dem ~used nbrs with
    | Error r -> Error r
    | Ok p -> Embed.plan_move sub ~vtopo req m ~vnode ~target:p ()

  (* A seeded case: a generated backbone or Waxman substrate under random
     CPU and link load, perhaps with crashed machines and links, and a
     ring or Waxman slice whose CPU and bandwidth demands may not fit.
     Returns [disturb], which loads and crashes some more. *)
  let case seed ~waxman =
    let rng = Rng.create seed in
    let kind =
      if waxman then Vini_scenario.Generate.waxman (10 + Rng.int rng 30)
      else Vini_scenario.Generate.backbone (16 + Rng.int rng 32)
    in
    let g =
      Vini_scenario.Generate.generate { Vini_scenario.Generate.kind; seed }
    in
    let n = Graph.node_count g in
    let under =
      Underlay.create ~engine:(Engine.create ~seed ()) ~rng:(Rng.create seed)
        ~graph:g ~mask_failures:false ()
    in
    let sub = Substrate.of_underlay under in
    let links = Array.of_list (Graph.links g) in
    let disturb () =
      List.iter
        (fun p ->
          if Rng.bool rng then
            Substrate.reserve_node sub p
              (Rng.float rng 0.9 *. Float.max 0.0 (Substrate.node_residual sub p)))
        (Graph.nodes g);
      List.iter
        (fun (l : Graph.link) ->
          let a = l.Graph.a and b = l.Graph.b in
          if Rng.int rng 3 = 0 then
            Substrate.reserve_path sub [ a; b ]
              (Rng.float rng 0.95
              *. Float.max 0.0 (Substrate.link_residual sub a b)))
        (Graph.links g);
      for _ = 1 to Rng.int rng (1 + (n / 6)) do
        Underlay.set_node_state under (Rng.int rng n) false
      done;
      for _ = 1 to Rng.int rng (1 + (n / 3)) do
        let l = Rng.choose rng links in
        Underlay.set_link_state under l.Graph.a l.Graph.b false
      done
    in
    disturb ();
    let nv = 3 + Rng.int rng 5 in
    let vtopo =
      if Rng.bool rng then Migration.virtual_ring nv
      else Vini_topo.Datasets.waxman ~rng:(Rng.create (seed + 1)) ~n:nv ()
    in
    let cpu_max = if Rng.int rng 5 = 0 then 1.2 else 0.5 in
    let cpus = Array.init nv (fun _ -> Rng.float rng cpu_max) in
    let link_bw = (List.hd (Graph.links g)).Graph.bandwidth_bps in
    let bws = Hashtbl.create 16 in
    List.iter
      (fun (l : Graph.link) ->
        Hashtbl.replace bws (key l.Graph.a l.Graph.b)
          (link_bw
          *.
          match Rng.int rng 4 with
          | 0 -> 0.0
          | 1 -> Rng.float rng 1.5
          | _ -> Rng.float rng 0.4))
      (Graph.links vtopo);
    let req =
      Request.make
        ~cpu:(fun v -> cpus.(v))
        ~bw:(fun l -> Hashtbl.find bws (key l.Graph.a l.Graph.b))
        ~algo:Request.Online ~seed ()
    in
    (sub, vtopo, req, disturb)
end

let prop_online_matches_per_candidate =
  QCheck.Test.make
    ~name:"online solve and plan_move match per-candidate pricing" ~count:200
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, waxman) ->
      let seed = abs seed in
      let sub, vtopo, req, disturb = Per_candidate.case seed ~waxman in
      let got = Embed.solve sub ~vtopo req in
      got = Per_candidate.solve sub ~vtopo req
      &&
      match got with
      | Error _ -> true
      | Ok m ->
          (* Plan every vnode's move on a substrate loaded further since
             admission, where a survivor's host may have crashed. *)
          Embed.commit sub ~vtopo req m;
          disturb ();
          List.for_all
            (fun vnode ->
              Embed.plan_move sub ~vtopo req m ~vnode ()
              = Per_candidate.plan_move sub ~vtopo req m ~vnode)
            (Graph.nodes vtopo))

(* --- crash-driven re-embedding, end to end -------------------------------- *)

let test_crash_migration_end_to_end () =
  let r = Migration.run ~seed:4242 ~duration:20.0 () in
  check Alcotest.bool "a migration happened" true (r.Migration.migrations <> []);
  check Alcotest.int "no reembed failures" 0
    (List.length r.Migration.reembed_failures);
  let m = List.hd r.Migration.migrations in
  check Alcotest.int "vnode 0 was displaced" 0 m.Vini.m_vnode;
  check Alcotest.int "from its original host" r.Migration.placement_before.(0)
    m.Vini.m_from;
  check Alcotest.int "to its recorded target" r.Migration.placement_after.(0)
    m.Vini.m_to;
  check Alcotest.bool "actually moved" true (m.Vini.m_from <> m.Vini.m_to);
  let down = Time.to_sec_f m.Vini.m_down_at in
  let up = Time.to_sec_f m.Vini.m_restored_at in
  check Alcotest.bool "positive downtime" true (up > down);
  check Alcotest.bool "prompt recovery" true (up -. down < 5.0);
  Array.iteri
    (fun v p ->
      if v <> 0 then
        check Alcotest.int "survivors stayed put" p
          r.Migration.placement_after.(v))
    r.Migration.placement_before;
  (* Traffic to the revived vnode resumed after the move. *)
  let tail =
    List.filter (fun (t, _) -> t > up +. 2.0) r.Migration.ping_series
  in
  check Alcotest.bool "traffic resumed" true (tail <> [])

let test_migration_export_deterministic () =
  (* The acceptance bar for the whole pipeline: a seeded run with
     auto-embedding and a mid-run Crash_pnode produces a byte-identical
     vini.embed/1 document when repeated. *)
  let a = Migration.run ~seed:99 ~duration:20.0 () in
  let b = Migration.run ~seed:99 ~duration:20.0 () in
  check Alcotest.string "byte-identical export"
    (Export.to_string a.Migration.export)
    (Export.to_string b.Migration.export);
  (match Export.member "schema" a.Migration.export with
  | Some (Export.Str s) ->
      check Alcotest.string "schema" Export.embed_schema_version s
  | _ -> Alcotest.fail "schema tag missing");
  (match Export.member "migrations" a.Migration.export with
  | Some (Export.Arr (_ :: _)) -> ()
  | _ -> Alcotest.fail "migration (with downtime) missing from export")

let test_planned_restore_is_not_migrated () =
  (* A Crash_pnode paired with a later Restore_pnode is planned downtime:
     the supervisor restarts in place and the embedder stays out of it. *)
  let engine = Engine.create ~seed:5 () in
  let profile _ = Underlay.planetlab_profile ~speed_ghz:2.0 in
  let vini = Vini.create ~engine ~graph:(abilene ()) ~profile () in
  let vtopo = Migration.virtual_ring 4 in
  let req = Request.make ~name:"planned" ~cpu:(fun _ -> 0.25) () in
  let spec =
    Experiment.make ~name:"planned" ~slice:(Slice.pl_vini "planned") ~vtopo
      ~placement:(Experiment.Auto req)
      ~events:
        [
          Experiment.at 5.0 (Experiment.Crash_pnode 1);
          Experiment.at 12.0 (Experiment.Restore_pnode 1);
        ]
      ()
  in
  let inst = Vini.deploy vini spec in
  let before = Iias.current_embedding (Vini.iias inst) in
  Vini.start inst;
  Engine.run ~until:(Time.sec 20) engine;
  check Alcotest.int "no migrations" 0 (List.length (Vini.migrations inst));
  check
    Alcotest.(list int)
    "placement unchanged" (Array.to_list before)
    (Array.to_list (Iias.current_embedding (Vini.iias inst)))

let test_reembed_converges_to_fresh_deploy () =
  (* After the crash-driven re-embed, the slice should carry traffic like a
     fresh deploy of the surviving mapping onto the degraded substrate. *)
  let r = Migration.run ~seed:2026 ~duration:20.0 () in
  let m = List.hd r.Migration.migrations in
  let restored = Time.to_sec_f m.Vini.m_restored_at in
  let t0 = restored +. 1.0 in
  let t_end = 50.0 (* last ping leaves at warmup (30 s) + duration (20 s) *) in
  let window = t_end -. t0 in
  let tail_replies =
    List.length (List.filter (fun (t, _) -> t >= t0) r.Migration.ping_series)
  in
  (* The reply count is binned by receipt time, so replies to probes sent
     just before [t0] can nudge the estimate past 1; cap it — above 1 it
     means the same thing as 1: everything sent in the tail came back. *)
  let tail_rate =
    Float.min 1.0 (float_of_int tail_replies /. (window /. 0.25))
  in
  (* The same surviving mapping, deployed fresh with the dead machine down
     from the start, observed over an equally long window. *)
  let engine = Engine.create ~seed:2026 () in
  let profile _ = Underlay.planetlab_profile ~speed_ghz:2.0 in
  let vini = Vini.create ~engine ~graph:(abilene ()) ~profile () in
  Underlay.set_node_state (Vini.underlay vini) m.Vini.m_from false;
  let vtopo = Migration.virtual_ring 6 in
  let spec =
    Experiment.make ~name:"fresh" ~slice:(Slice.pl_vini "fresh") ~vtopo
      ~embedding:(fun v -> r.Migration.placement_after.(v))
      ()
  in
  let inst = Vini.deploy vini spec in
  Vini.start inst;
  let iias = Vini.iias inst in
  Engine.run ~until:(Time.of_sec_f 30.0) engine;
  let ping =
    Ping.start
      ~stack:(Iias.tap (Iias.vnode iias 3))
      ~dst:(Iias.tap_addr (Iias.vnode iias 0))
      ~count:(int_of_float (window /. 0.25))
      ~mode:(Ping.Interval (Time.ms 250))
      ~reply_timeout:(Time.ms 900) ()
  in
  Engine.run ~until:(Time.of_sec_f (30.0 +. window +. 5.0)) engine;
  let fresh_rate =
    float_of_int (Ping.received ping)
    /. float_of_int (max 1 (Ping.sent ping))
  in
  check Alcotest.bool
    (Printf.sprintf "acceptance converged (re-embedded %.2f vs fresh %.2f)"
       tail_rate fresh_rate)
    true
    (Float.abs (fresh_rate -. tail_rate) <= 0.1)

let suite =
  [
    Alcotest.test_case "greedy places a ring" `Quick test_greedy_places_ring;
    Alcotest.test_case "online solver deterministic" `Quick
      test_online_deterministic;
    Alcotest.test_case "structured rejections" `Quick
      test_structured_rejections;
    Alcotest.test_case "admission sequence" `Quick test_admission_sequence;
    Alcotest.test_case "reembed pins survivors" `Quick
      test_reembed_pins_survivors;
    QCheck_alcotest.to_alcotest prop_solvers_respect_capacity;
    Alcotest.test_case "crash migration end to end" `Quick
      test_crash_migration_end_to_end;
    Alcotest.test_case "vini.embed/1 export deterministic" `Quick
      test_migration_export_deterministic;
    Alcotest.test_case "planned restore is not migrated" `Quick
      test_planned_restore_is_not_migrated;
    Alcotest.test_case "re-embed converges to fresh deploy" `Quick
      test_reembed_converges_to_fresh_deploy;
    QCheck_alcotest.to_alcotest prop_online_matches_per_candidate;
  ]
