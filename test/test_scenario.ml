(* Tests for the Internet-scale scenario generator (DESIGN.md §17):
   seeded topology generation and its vini.topo/1 interchange format,
   the lazy heavy-tailed workload stream, the fluid background-load
   model's conservation law, and the spec-language / Vini.start
   integration of hybrid fidelity. *)

module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Graph = Vini_topo.Graph
module Underlay = Vini_phys.Underlay
module Generate = Vini_scenario.Generate
module Workload = Vini_scenario.Workload
module Fluid = Vini_scenario.Fluid
module Spec_lang = Vini_core.Spec_lang
module Vini = Vini_core.Vini
module Json = Vini_std.Json

let check = Alcotest.check

let mentions ~frag s =
  let n = String.length frag in
  let rec go i = (i + n <= String.length s) && (String.sub s i n = frag || go (i + 1)) in
  go 0

(* An arbitrary generator spec from two small integers: covers all three
   kinds with in-range parameters. *)
let spec_of ~pick ~n ~seed =
  let kind =
    match pick mod 3 with
    | 0 -> Generate.waxman (2 + (n mod 40))
    | 1 -> Generate.fat_tree (2 * (1 + (n mod 4)))
    | _ -> Generate.backbone (2 + (n mod 64))
  in
  { Generate.kind; seed }

(* --- generation properties ----------------------------------------------- *)

let prop_document_deterministic =
  QCheck.Test.make ~name:"same (kind, params, seed) => byte-identical document"
    ~count:60
    QCheck.(triple (int_bound 2) (int_bound 1_000) (int_bound 10_000))
    (fun (pick, n, seed) ->
      let spec = spec_of ~pick ~n ~seed in
      String.equal (Generate.document spec) (Generate.document spec))

let prop_generated_connected =
  QCheck.Test.make ~name:"generated substrates are connected" ~count:60
    QCheck.(triple (int_bound 2) (int_bound 1_000) (int_bound 10_000))
    (fun (pick, n, seed) ->
      Graph.is_connected (Generate.generate (spec_of ~pick ~n ~seed)))

let prop_delay_weight_monotone =
  QCheck.Test.make ~name:"link delay and IGP weight are monotone in distance"
    ~count:200
    QCheck.(pair (float_range 0.0 6_000.0) (float_range 0.0 6_000.0))
    (fun (km1, km2) ->
      let lo, hi = if km1 <= km2 then (km1, km2) else (km2, km1) in
      let d_lo = Generate.delay_of_km lo and d_hi = Generate.delay_of_km hi in
      Time.compare d_lo d_hi <= 0
      && Generate.weight_of_delay d_lo <= Generate.weight_of_delay d_hi)

(* --- the vini.topo/1 format ---------------------------------------------- *)

let test_topo_roundtrip () =
  let spec = { Generate.kind = Generate.backbone 24; seed = 5 } in
  let g = Generate.generate spec in
  let g' =
    match Json.of_string (Generate.document spec) with
    | Error e -> Alcotest.failf "reparse: %s" e
    | Ok j -> (
        match Generate.of_json j with
        | Error e -> Alcotest.failf "of_json: %s" e
        | Ok g' -> g')
  in
  check Alcotest.string "label survives" (Graph.label g) (Graph.label g');
  check Alcotest.int "nodes survive" (Graph.node_count g) (Graph.node_count g');
  check Alcotest.int "links survive" (Graph.link_count g) (Graph.link_count g');
  List.iter2
    (fun (a : Graph.link) (b : Graph.link) ->
      check Alcotest.int "endpoint a" a.Graph.a b.Graph.a;
      check Alcotest.int "endpoint b" a.Graph.b b.Graph.b;
      check Alcotest.int "delay" 0 (Time.compare a.Graph.delay b.Graph.delay);
      check Alcotest.int "weight" a.Graph.weight b.Graph.weight)
    (Graph.links g) (Graph.links g')

let test_topo_rejects_wrong_schema () =
  match Generate.of_json (Json.Obj [ ("schema", Json.Str "vini.metrics/1") ]) with
  | Ok _ -> Alcotest.fail "accepted a metrics document as a topology"
  | Error e ->
      check Alcotest.bool "error names the schema" true
        (mentions ~frag:"vini.topo/1" e)

(* --- workload properties -------------------------------------------------- *)

let pull n stream = List.init n (fun _ -> Workload.next stream)

let prop_workload_deterministic =
  QCheck.Test.make ~name:"workload stream is a pure function of (params, seed)"
    ~count:40
    QCheck.(pair (int_bound 10_000) (int_range 2 50))
    (fun (seed, nodes) ->
      let p = Workload.default ~users:1_000 ~seed in
      let a = pull 200 (Workload.create p ~nodes) in
      let b = pull 200 (Workload.create p ~nodes) in
      a = b)

let prop_workload_well_formed =
  QCheck.Test.make ~name:"flows are ordered, sized, and never self-addressed"
    ~count:40
    QCheck.(pair (int_bound 10_000) (int_range 2 50))
    (fun (seed, nodes) ->
      let p = Workload.default ~users:1_000 ~seed in
      let flows = pull 300 (Workload.create p ~nodes) in
      let ordered =
        List.for_all2
          (fun a b -> Time.compare a.Workload.at b.Workload.at < 0)
          (List.filteri (fun i _ -> i < 299) flows)
          (List.tl flows)
      in
      ordered
      && List.for_all
           (fun f ->
             f.Workload.src_node <> f.Workload.dst_node
             && f.Workload.src_node >= 0
             && f.Workload.src_node < nodes
             && f.Workload.dst_node >= 0
             && f.Workload.dst_node < nodes
             && f.Workload.bytes >= 1
             && f.Workload.wire_bytes > f.Workload.bytes)
           flows)

(* Pareto(scale s, shape a) has E[ln (X/s)] = 1/a, so the MLE tail index
   from a seeded sample must sit near the configured shape. *)
let test_workload_heavy_tail () =
  let shape = 1.5 in
  let p =
    { (Workload.default ~users:100_000 ~seed:11) with
      Workload.pareto_shape = shape }
  in
  let scale = p.Workload.mean_flow_bytes *. (shape -. 1.0) /. shape in
  let stream = Workload.create p ~nodes:20 in
  let n = 20_000 in
  let sum_log = ref 0.0 in
  for _ = 1 to n do
    let f = Workload.next stream in
    sum_log := !sum_log +. log (float_of_int f.Workload.bytes /. scale)
  done;
  let mle = 1.0 /. (!sum_log /. float_of_int n) in
  if Float.abs (mle -. shape) > 0.1 then
    Alcotest.failf "tail index estimate %.3f too far from shape %.1f" mle shape

let test_workload_homes_skewed () =
  let nodes = 20 in
  let p = Workload.default ~users:10_000 ~seed:3 in
  let counts = Array.make nodes 0 in
  for u = 0 to p.Workload.users - 1 do
    let h = Workload.home_node p ~nodes u in
    check Alcotest.bool "home in range" true (h >= 0 && h < nodes);
    check Alcotest.int "home is pure" h (Workload.home_node p ~nodes u);
    counts.(h) <- counts.(h) + 1
  done;
  let sorted = Array.copy counts in
  Array.sort (fun a b -> compare b a) sorted;
  let top = float_of_int (sorted.(0) + sorted.(1) + sorted.(2)) in
  let uniform_top = 3.0 /. float_of_int nodes *. float_of_int p.Workload.users in
  if top < 1.5 *. uniform_top then
    Alcotest.failf
      "skew 1.0 should concentrate users: top-3 nodes hold %.0f, uniform \
       would be %.0f"
      top uniform_top

(* --- fluid model ---------------------------------------------------------- *)

let make_fluid ?(fidelity = Fluid.Flow) ?(users = 200_000) ~seed () =
  let engine = Engine.create ~seed () in
  let graph = Generate.generate { Generate.kind = Generate.backbone 16; seed } in
  let under =
    Underlay.create ~engine ~rng:(Vini_std.Rng.split (Engine.rng engine)) ~graph
      ()
  in
  let workload = Workload.default ~users ~seed:(seed + 1) in
  let fl =
    Fluid.install ~under { Fluid.fidelity; tick = Fluid.default_tick; workload }
  in
  (engine, fl)

let conserved (tot : Fluid.totals) =
  let rhs = tot.Fluid.drained_bytes +. tot.Fluid.dropped_bytes
            +. tot.Fluid.backlog_bytes
  in
  Float.abs (tot.Fluid.offered_bytes -. rhs)
  <= 1e-9 *. Float.max 1.0 tot.Fluid.offered_bytes

let prop_fluid_conserves =
  QCheck.Test.make ~name:"fluid model conserves offered load" ~count:15
    QCheck.(int_bound 10_000)
    (fun seed ->
      let engine, fl = make_fluid ~seed () in
      Engine.run ~until:(Time.sec 5) engine;
      let tot = Fluid.totals fl in
      Fluid.ticks fl > 0 && tot.Fluid.flows > 0 && conserved tot)

let test_fluid_loss_under_overload () =
  (* 40M users at the default per-user rate offer ~16 Gb/s of background
     load; a 16-PoP backbone's 10G links must saturate, queue, and shed. *)
  let engine, fl = make_fluid ~users:40_000_000 ~seed:5 () in
  Engine.run ~until:(Time.sec 5) engine;
  let tot = Fluid.totals fl in
  check Alcotest.bool "conservation holds under overload" true (conserved tot);
  if tot.Fluid.dropped_bytes +. tot.Fluid.backlog_bytes <= 0.0 then
    Alcotest.fail "expected queueing or loss under a 40M-user offered load"

(* --- spec language and Vini.start integration ---------------------------- *)

let scenario_spec =
  {|experiment scenario-it
slice reserved 0.25 rt
topology generate backbone 24 seed 9
workload users 500000 seed 3 rate 0.002 bytes 40000 shape 1.5 skew 1
fidelity hybrid tick 100ms
node a
node b
node c
link a b bw 1g delay 5ms weight 500
link b c bw 1g delay 5ms weight 500
routing ospf hello 5 dead 10
|}

let test_spec_verbs_parse () =
  let p =
    match Spec_lang.parse scenario_spec with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let g =
    match Spec_lang.substrate_graph p with
    | Ok (Some g) -> g
    | Ok None -> Alcotest.fail "spec declares a substrate"
    | Error e -> Alcotest.failf "substrate: %s" e
  in
  check Alcotest.string "substrate label" "backbone-24-s9" (Graph.label g);
  check Alcotest.int "substrate size" 24 (Graph.node_count g);
  (match Spec_lang.workload p with
  | None -> Alcotest.fail "spec declares a workload"
  | Some w ->
      check Alcotest.int "users" 500_000 w.Workload.users;
      check Alcotest.int "workload seed" 3 w.Workload.seed);
  match Spec_lang.fidelity p with
  | Some (Fluid.Hybrid, tick) ->
      check Alcotest.int "tick ms" 100 (int_of_float (Time.to_ms_f tick))
  | _ -> Alcotest.fail "expected hybrid fidelity, tick 100ms"

let test_spec_fidelity_requires_workload () =
  let text =
    {|experiment bad
slice fair
fidelity hybrid
node a
node b
link a b bw 1g delay 1ms weight 1
routing static
|}
  in
  let p =
    match Spec_lang.parse text with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %s" e
  in
  match Spec_lang.to_spec p ~phys:(Vini_rcc.Rcc.abilene ()) with
  | Ok _ -> Alcotest.fail "fidelity without workload must not elaborate"
  | Error e ->
      check Alcotest.bool "error mentions the workload" true
        (mentions ~frag:"workload" e)

let test_hybrid_installs_on_start () =
  let p =
    match Spec_lang.parse scenario_spec with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let phys =
    match Spec_lang.substrate_graph p with
    | Ok (Some g) -> g
    | _ -> Alcotest.fail "substrate expected"
  in
  let spec =
    match Spec_lang.to_spec p ~phys with
    | Ok s -> s
    | Error e -> Alcotest.failf "to_spec: %s" e
  in
  let engine = Engine.create ~seed:2 () in
  let vini = Vini.create ~engine ~graph:phys () in
  let inst = Vini.deploy vini spec in
  check Alcotest.bool "no fluid before start" true (Vini.fluid inst = None);
  Vini.start inst;
  let fl =
    match Vini.fluid inst with
    | Some fl -> fl
    | None -> Alcotest.fail "hybrid fidelity must install the fluid model"
  in
  Vini.run ~until:(Time.sec 3) vini;
  check Alcotest.bool "ticks advanced" true (Fluid.ticks fl > 0);
  check Alcotest.bool "conserved" true (conserved (Fluid.totals fl));
  (* The scenario document for this run serialises deterministically. *)
  let doc () =
    Vini_measure.Export.to_string
      (Vini_measure.Export.scenario_document ~fluid:fl
         ~under:(Vini.underlay vini) ~substrate:phys
         ~workload:(Option.get (Spec_lang.workload p))
         ())
  in
  check Alcotest.string "export is stable" (doc ()) (doc ())

let test_openvpn_wire_bytes () =
  let module O = Vini_overlay.Openvpn in
  check Alcotest.int "empty payload" 0 (O.wire_bytes ~payload:0);
  let one = O.wire_bytes ~payload:100 in
  check Alcotest.bool "one packet adds one encapsulation" true (one > 100);
  let mss = 1500 - 41 - 20 in
  check Alcotest.bool "crossing the MTU adds a second header" true
    (O.wire_bytes ~payload:(mss + 1) - O.wire_bytes ~payload:mss > 1)

(* --- next-hop table and fluid routing vs. their oracles ------------------ *)

(* The underlay's routing oracle: a fresh Dijkstra per source under the
   weights it routes by (a down link, or a link into a crashed machine,
   costs 100_000_000), and the first hop found by walking the [prev]
   chain back from [dst].  A [prev] cycle, possible only with zero-weight
   links, has no first hop: the walk gives up after n steps. *)
let oracle_table graph ~link_up ~node_up =
  let n = Graph.node_count graph in
  let weight_of (l : Graph.link) =
    if link_up l.Graph.a l.Graph.b && node_up.(l.Graph.a) && node_up.(l.Graph.b)
    then l.Graph.weight
    else 100_000_000
  in
  Array.init n (fun from ->
      let _, prev = Graph.dijkstra ~weight_of graph from in
      Array.init n (fun dst ->
          let rec back v steps =
            if steps > n then None
            else
              match prev.(v) with
              | None -> None
              | Some p when p = from -> Some v
              | Some p -> back p (steps + 1)
          in
          if from = dst then None else back dst 0))

(* The fluid model's former router: walk [Underlay.next_hop] from src to
   dst (a walk longer than n hops is a loop, hence a blackhole),
   memoised per (src, dst) and flushed on every underlay upcall. *)
let memo_router under =
  let n = Graph.node_count (Underlay.graph under) in
  let paths = Hashtbl.create 64 in
  Underlay.subscribe under (fun _ -> Hashtbl.reset paths);
  fun src dst ->
    match Hashtbl.find_opt paths (src, dst) with
    | Some p -> Some p
    | None ->
        let rec walk acc hops u =
          if u = dst then Some (List.rev acc)
          else if hops > n then None
          else
            match Underlay.next_hop under ~from:u ~dst with
            | None -> None
            | Some v -> walk ((u, v) :: acc) (hops + 1) v
        in
        let p = walk [] 0 src in
        (match p with Some p -> Hashtbl.replace paths (src, dst) p | None -> ());
        p

type routing_case = {
  waxman : bool;
  pops : int;
  graph_seed : int;
  zero_every : int;  (** every k-th link gets weight 0; 0 for none *)
  mask : bool;
  events : (bool * int * bool) list;  (** (link?, index, up) *)
  wl_seed : int;
}

let print_routing_case c =
  Printf.sprintf
    "{%s %d seed %d zero_every %d mask %b wl_seed %d events [%s]}"
    (if c.waxman then "waxman" else "backbone")
    c.pops c.graph_seed c.zero_every c.mask c.wl_seed
    (String.concat "; "
       (List.map
          (fun (link, i, up) ->
            Printf.sprintf "%s %d %s" (if link then "link" else "node") i
              (if up then "up" else "down"))
          c.events))

let gen_routing_case =
  QCheck.Gen.(
    map
      (fun ((waxman, pops, graph_seed, zero_every), (mask, events, wl_seed)) ->
        { waxman; pops; graph_seed; zero_every; mask; events; wl_seed })
      (pair
         (quad bool (int_range 4 20) (int_bound 10_000) (oneofl [ 0; 0; 2; 3 ]))
         (triple bool
            (list_size (int_range 1 10) (triple bool (int_bound 1000) bool))
            (int_bound 10_000))))

(* Zero weights are outside what specs and generators produce, but a
   vini.topo/1 file may carry them; they are what makes a fluid walk
   loop, so partial paths end in a blackhole. *)
let routing_graph c =
  let kind =
    if c.waxman then Generate.waxman c.pops else Generate.backbone c.pops
  in
  let g = Generate.generate { Generate.kind; seed = c.graph_seed } in
  if c.zero_every = 0 then g
  else
    Graph.create
      ~names:(Array.init (Graph.node_count g) (Graph.name g))
      ~links:
        (List.mapi
           (fun i (l : Graph.link) ->
             if i mod c.zero_every = 0 then { l with Graph.weight = 0 } else l)
           (Graph.links g))

let prop_routing_matches_oracles =
  QCheck.Test.make
    ~name:"next-hop table and fluid paths match the prev-chain and memo walks"
    ~count:200
    (QCheck.make ~print:print_routing_case gen_routing_case)
    (fun c ->
      let graph = routing_graph c in
      let n = Graph.node_count graph in
      let links = Array.of_list (Graph.links graph) in
      let engine = Engine.create ~seed:c.graph_seed () in
      let under =
        Underlay.create ~engine ~rng:(Vini_std.Rng.split (Engine.rng engine))
          ~graph ~mask_failures:c.mask ()
      in
      let workload = Workload.default ~users:100_000 ~seed:c.wl_seed in
      let tick = Fluid.default_tick in
      let tick_s = Time.to_sec_f tick in
      let fl = Fluid.install ~under { Fluid.fidelity = Fluid.Flow; tick; workload } in
      let memo = memo_router under in
      (* Oracle state: administrative link and node state, and the table
         routing was last computed from (only masking recomputes it). *)
      let link_state = Hashtbl.create 16 in
      let link_up a b =
        Option.value ~default:true (Hashtbl.find_opt link_state (min a b, max a b))
      in
      let node_up = Array.make n true in
      let table = ref (oracle_table graph ~link_up ~node_up) in
      (* Oracle accounting: the same flows, routed by the memo walk, their
         bytes added in path order. *)
      let stream = Workload.create workload ~nodes:n in
      let flows = ref 0 and offered = ref 0.0 in
      let inflow = Hashtbl.create 64 in
      let inflow_of hop = Option.value ~default:0.0 (Hashtbl.find_opt inflow hop) in
      let pull now =
        while Time.compare (Workload.peek_time stream) now <= 0 do
          let f = Workload.next stream in
          incr flows;
          let bytes = float_of_int f.Workload.wire_bytes in
          match memo f.Workload.src_node f.Workload.dst_node with
          | None -> offered := !offered +. bytes
          | Some path ->
              List.iter
                (fun hop ->
                  offered := !offered +. bytes;
                  Hashtbl.replace inflow hop (inflow_of hop +. bytes))
                path
        done
      in
      let pp_path = function
        | None -> "blackhole"
        | Some p ->
            String.concat " " (List.map (fun (u, v) -> Printf.sprintf "%d>%d" u v) p)
      in
      let check_tables step =
        for from = 0 to n - 1 do
          for dst = 0 to n - 1 do
            let got = Underlay.next_hop under ~from ~dst in
            let want = !table.(from).(dst) in
            if got <> want then
              QCheck.Test.fail_reportf "step %d: next_hop %d->%d = %s, oracle %s"
                step from dst
                (Option.fold ~none:"none" ~some:string_of_int got)
                (Option.fold ~none:"none" ~some:string_of_int want);
            let got = Fluid.route fl ~src:from ~dst and want = memo from dst in
            if got <> want then
              QCheck.Test.fail_reportf "step %d: fluid path %d->%d = %s, memo walk %s"
                step from dst (pp_path got) (pp_path want)
          done
        done
      in
      let check_loads step =
        let tot = Fluid.totals fl in
        if tot.Fluid.flows <> !flows || tot.Fluid.offered_bytes <> !offered then
          QCheck.Test.fail_reportf
            "step %d: %d flows / %.17g offered bytes, oracle %d / %.17g" step
            tot.Fluid.flows tot.Fluid.offered_bytes !flows !offered;
        Array.iter
          (fun (l : Graph.link) ->
            List.iter
              (fun (a, b) ->
                let got = (Fluid.link_load fl ~a ~b).Fluid.offered_bps in
                let want = inflow_of (a, b) *. 8.0 /. tick_s in
                if got <> want then
                  QCheck.Test.fail_reportf
                    "step %d: offered on %d->%d = %.17g b/s, oracle %.17g" step a
                    b got want)
              [ (l.Graph.a, l.Graph.b); (l.Graph.b, l.Graph.a) ])
          links;
        Hashtbl.reset inflow
      in
      check_tables 0;
      List.iteri
        (fun i (is_link, idx, up) ->
          let step = i + 1 in
          if is_link then begin
            let l = links.(idx mod Array.length links) in
            Underlay.set_link_state under l.Graph.a l.Graph.b up;
            Hashtbl.replace link_state (min l.Graph.a l.Graph.b, max l.Graph.a l.Graph.b) up
          end
          else begin
            Underlay.set_node_state under (idx mod n) up;
            node_up.(idx mod n) <- up
          end;
          if c.mask then table := oracle_table graph ~link_up ~node_up;
          check_tables step;
          let now = tick * step in
          Engine.run ~until:now engine;
          pull now;
          check_loads step)
        c.events;
      true)

(* Cutting a link reroutes background load at the next tick: nothing
   lands on the cut link's queues, the detour carries it, and the bytes
   still balance.  A ring leaves exactly one detour. *)
let test_fluid_follows_chaos () =
  let n = 5 in
  let graph =
    Graph.create
      ~names:(Array.init n (Printf.sprintf "r%d"))
      ~links:
        (List.init n (fun i ->
             {
               Graph.a = i;
               b = (i + 1) mod n;
               bandwidth_bps = 1e10;
               delay = Time.ms 1;
               loss = 0.0;
               weight = 1;
             }))
  in
  let engine = Engine.create ~seed:3 () in
  let under =
    Underlay.create ~engine ~rng:(Vini_std.Rng.split (Engine.rng engine)) ~graph ()
  in
  let fl =
    Fluid.install ~under
      {
        Fluid.fidelity = Fluid.Flow;
        tick = Fluid.default_tick;
        workload = Workload.default ~users:200_000 ~seed:4;
      }
  in
  let offered a b = (Fluid.link_load fl ~a ~b).Fluid.offered_bps in
  Engine.run ~until:(Time.sec 1) engine;
  check Alcotest.bool "the link carries load before the cut" true
    (offered 0 1 > 0.0 && offered 1 0 > 0.0);
  let detour = [ (0, 4); (4, 3); (3, 2); (2, 1) ] in
  let before = List.map (fun (a, b) -> offered a b) detour in
  Underlay.set_link_state under 0 1 false;
  Engine.run ~until:(Time.ms 1100) engine;
  check Alcotest.(float 0.0) "no inflow on 0->1 after the cut" 0.0 (offered 0 1);
  check Alcotest.(float 0.0) "no inflow on 1->0 after the cut" 0.0 (offered 1 0);
  check
    Alcotest.(option (list (pair int int)))
    "0->1 takes the detour" (Some detour) (Fluid.route fl ~src:0 ~dst:1);
  List.iter2
    (fun (a, b) was ->
      if offered a b <= was then
        Alcotest.failf "detour hop %d->%d should carry more: %.0f -> %.0f b/s" a b
          was (offered a b))
    detour before;
  check Alcotest.bool "conserved" true (conserved (Fluid.totals fl));
  (* The export labels each queue with the hop it carries, also for the
     ring's closing link, declared as 4 -- 0. *)
  let exported a b =
    match Fluid.to_json fl with
    | Json.Obj fields -> (
        match List.assoc "links" fields with
        | Json.Arr rows ->
            List.find_map
              (function
                | Json.Obj r
                  when List.assoc "from" r = Json.Str (Printf.sprintf "r%d" a)
                       && List.assoc "to" r = Json.Str (Printf.sprintf "r%d" b) -> (
                    match List.assoc "offered_bps" r with
                    | Json.Num x -> Some x
                    | _ -> None)
                | _ -> None)
              rows
        | _ -> None)
    | _ -> None
  in
  check Alcotest.(option (float 0.0)) "export of 0->4" (Some (offered 0 4))
    (exported 0 4);
  check Alcotest.(option (float 0.0)) "export of 4->0" (Some (offered 4 0))
    (exported 4 0)

(* Routing a flow and draining the queues allocate nothing: the folds
   cost no more minor words than the workload draws of the flows they
   pull (replayed on a twin stream), the engine's dispatch of the same
   ticks (measured on a bare timer), and a few words per fold.  One word
   per flow or per queue would exceed that by a thousand. *)
let test_fluid_fold_allocation () =
  let engine, fl = make_fluid ~users:400_000 ~seed:11 () in
  let tick = Fluid.default_tick in
  let warm = Time.sec 1 and until = Time.sec 3 in
  let ticks = (until - warm) / tick in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let twin = Workload.create (Fluid.config fl).Fluid.workload ~nodes:16 in
  let draws ~from ~ticks =
    for k = 1 to ticks do
      let now = from + (k * tick) in
      while Time.compare (Workload.peek_time twin) now <= 0 do
        ignore (Workload.next twin)
      done
    done
  in
  let bare = Engine.create ~seed:11 () in
  Engine.every bare tick (fun () -> true);
  Engine.run ~until:warm engine;
  Engine.run ~until:warm bare;
  draws ~from:Time.zero ~ticks:(warm / tick);
  let flows0 = (Fluid.totals fl).Fluid.flows in
  let fold_words = words (fun () -> Engine.run ~until engine) in
  let draw_words = words (fun () -> draws ~from:warm ~ticks) in
  let dispatch_words = words (fun () -> Engine.run ~until bare) in
  let flows = (Fluid.totals fl).Fluid.flows - flows0 in
  check Alcotest.bool "flows pulled" true (flows > 1000);
  let bound = draw_words +. dispatch_words +. (4.0 *. float_of_int ticks) in
  if fold_words > bound then
    Alcotest.failf
      "%d folds of %d flows allocated %.0f words; draws %.0f + dispatch %.0f \
       allow %.0f"
      ticks flows fold_words draw_words dispatch_words bound

let suite =
  [
    QCheck_alcotest.to_alcotest prop_document_deterministic;
    QCheck_alcotest.to_alcotest prop_generated_connected;
    QCheck_alcotest.to_alcotest prop_delay_weight_monotone;
    Alcotest.test_case "vini.topo/1 round-trips" `Quick test_topo_roundtrip;
    Alcotest.test_case "vini.topo/1 rejects wrong schemas" `Quick
      test_topo_rejects_wrong_schema;
    QCheck_alcotest.to_alcotest prop_workload_deterministic;
    QCheck_alcotest.to_alcotest prop_workload_well_formed;
    Alcotest.test_case "flow sizes are Pareto with the configured tail" `Quick
      test_workload_heavy_tail;
    Alcotest.test_case "popularity skew concentrates users" `Quick
      test_workload_homes_skewed;
    QCheck_alcotest.to_alcotest prop_fluid_conserves;
    Alcotest.test_case "overload queues and sheds, conserving bytes" `Quick
      test_fluid_loss_under_overload;
    Alcotest.test_case "spec verbs parse and resolve" `Quick
      test_spec_verbs_parse;
    Alcotest.test_case "fidelity without workload is rejected" `Quick
      test_spec_fidelity_requires_workload;
    Alcotest.test_case "Vini.start installs hybrid fluid model" `Quick
      test_hybrid_installs_on_start;
    Alcotest.test_case "openvpn wire cost models encapsulation" `Quick
      test_openvpn_wire_bytes;
    QCheck_alcotest.to_alcotest prop_routing_matches_oracles;
    Alcotest.test_case "fluid follows chaos" `Quick test_fluid_follows_chaos;
    Alcotest.test_case "fold allocates only the workload draws" `Quick
      test_fluid_fold_allocation;
  ]
