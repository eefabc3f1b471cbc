(* backbone200_tenants: set-up builds examples/specs/scenario.vini — the
   seeded 200-PoP backbone substrate, one million simulated users and
   hybrid packet/fluid fidelity — and starts its experiment.  Each
   operation is one tenant arrival: a 6-node virtual ring placed by
   [Vini.try_deploy] with an online (congestion-priced) request, plus the
   departures ([Vini.undeploy]) that a seeded lifetime schedules after
   it.  The scenario's fluid campaign then runs with the resident tenants
   holding their share of the substrate. *)

module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Graph = Vini_topo.Graph
module Rng = Vini_std.Rng
module Slice = Vini_phys.Slice
module Iias = Vini_overlay.Iias
module Vini = Vini_core.Vini
module Experiment = Vini_core.Experiment
module Spec_lang = Vini_core.Spec_lang
module Embed = Vini_embed.Embed
module Request = Vini_embed.Request
module Substrate = Vini_embed.Substrate
module Fluid = Vini_scenario.Fluid
module Generate = Vini_scenario.Generate
module Ping = Vini_measure.Ping

let spec_path = "examples/specs/scenario.vini"

(* The scenario is a fixed input: its spec seeds the substrate and the
   users, and the engine takes [vini run]'s default seed, so the campaign
   is the same run for every workload seed.  The workload seed drives the
   tenants. *)
let engine_seed = 1001

type scale = { campaign_s : int }

let full = { campaign_s = 30 }
let short = { campaign_s = 3 }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let fail fmt = Printf.ksprintf failwith fmt

type tenant = { inst : Vini.instance; depart_after : int }

type t = {
  vini : Vini.t;
  engine : Engine.t;
  base : Vini.instance;
  baseline_nodes : float array;  (** substrate usage before any tenant *)
  baseline_links : float list;
  rng : Rng.t;
  seed : int;
  mutable arrivals : int;
  mutable admitted : int;
  mutable resident : tenant list;
}

let sub t = Vini.substrate t.vini

let link_usage s =
  List.map
    (fun (l : Graph.link) -> Substrate.link_used s l.Graph.a l.Graph.b)
    (Graph.links (Substrate.graph s))

(* From the spec text to the first simulated event.  Failing input here
   is a broken checkout, not a measurement: it aborts the run. *)
let setup p ~seed ~text =
  Probe.begin_setup p;
  let parsed =
    Probe.timed p "core.parse_s" (fun () ->
        match Spec_lang.parse text with Ok x -> x | Error e -> fail "%s: %s" spec_path e)
  in
  let phys =
    Probe.timed p "scenario.generate_s" (fun () ->
        match Spec_lang.substrate_graph parsed with
        | Ok (Some g) -> g
        | Ok None -> fail "%s declares no substrate" spec_path
        | Error e -> fail "%s: %s" spec_path e)
  in
  let spec =
    Probe.timed p "core.parse_s" (fun () ->
        match Spec_lang.to_spec parsed ~phys with Ok s -> s | Error e -> fail "%s: %s" spec_path e)
  in
  let engine = Probe.new_engine ~seed:engine_seed in
  let vini, base =
    Probe.timed p "core.create_s" (fun () ->
        let vini = Vini.create ~engine ~graph:phys () in
        (vini, Vini.deploy vini spec))
  in
  Probe.timed p "core.start_s" (fun () -> Vini.start base);
  Probe.end_setup p;
  let s = Vini.substrate vini in
  {
    vini; engine; base;
    baseline_nodes = Array.init (Graph.node_count phys) (Substrate.node_used s);
    baseline_links = link_usage s;
    rng = Rng.create seed; seed;
    arrivals = 0; admitted = 0; resident = [];
  }

let ring = Vini_repro.Migration.virtual_ring 6
let eps = 1e-6

(* Every tenant asks for what perf_suite's scenario.embed200_* rows ask
   for: 0.25 reference cores per virtual node (also the scenario's own
   [slice reserved 0.25]) and 50 Mb/s per virtual link. *)
let vnode_cpu = 0.25
let vlink_bw = 5e7

let node_used_total s =
  let acc = ref 0.0 in
  for i = 0 to Graph.node_count (Substrate.graph s) - 1 do
    acc := !acc +. Substrate.node_used s i
  done;
  !acc

type arrival = {
  index : int;
  name : string;
  req : Request.t;
  spec : Experiment.spec;
  lifetime : int;
  reserved_before : float;  (** substrate CPU reserved before the arrival *)
}

(* The next arrival.  Its lifetime and solver tie-break seed come from
   the workload seed, so the whole schedule is a function of it. *)
let next t =
  let index = t.arrivals in
  t.arrivals <- index + 1;
  let name = Printf.sprintf "tenant-%d" index in
  let lifetime = 25 + Rng.int t.rng 11 in
  let req =
    Request.make ~name ~cpu:(fun _ -> vnode_cpu) ~bw:(fun _ -> vlink_bw)
      ~algo:Request.Online ~seed:(t.seed + index) ()
  in
  let spec =
    Experiment.make ~name ~slice:(Slice.pl_vini name) ~vtopo:ring
      ~placement:(Experiment.Auto req) ()
  in
  { index; name; req; spec; lifetime; reserved_before = node_used_total (sub t) }

(* Traced runs only, outside the timed operation: the pure solver on the
   live substrate, which is what [try_deploy] spends its time in. *)
let solve_ms t a =
  let t0 = Probe.clock () in
  ignore (Tracer.with_span "embed.solve" (fun () -> Embed.solve (sub t) ~vtopo:ring a.req));
  1e3 *. (Probe.clock () -. t0)

(* The timed operation: the arrival's [try_deploy] and the departures
   that come due with it.  Returns the placement and how many tenants
   left; [verify] checks both afterwards. *)
let arrive p t a =
  let t0 = Probe.clock () in
  let r = Tracer.with_span "embed.try_deploy" (fun () -> Vini.try_deploy t.vini a.spec) in
  Probe.sample p "embed.deploy_ms" (1e3 *. (Probe.clock () -. t0));
  let leaving, staying = List.partition (fun x -> x.depart_after <= a.index) t.resident in
  t.resident <-
    (match r with
    | Ok inst -> { inst; depart_after = a.index + a.lifetime } :: staying
    | Error _ -> staying);
  List.iter
    (fun x -> Tracer.with_span "embed.undeploy" (fun () -> Vini.undeploy t.vini x.inst))
    (List.rev leaving);
  (r, List.length leaving)

(* With no demand of its own, [Embed.check] validates the committed
   mapping's shape and liveness and that no host's CPU is overdrawn. *)
let no_demand = Request.make ~cpu:(fun _ -> 0.0) ()

(* Outside the timed operation.  The admitted mapping, committed on top
   of the residuals it was solved against, must be well formed and leave
   no account overdrawn, and the substrate's reserved CPU must have moved
   by exactly the arrival's reservation minus the departures'. *)
let verify p t a (r, departed) =
  let s = sub t in
  let admitted =
    match r with
    | Ok inst ->
        t.admitted <- t.admitted + 1;
        let m = Option.get (Vini.mapping inst) in
        (match Embed.check s ~vtopo:ring no_demand m with
        | Ok () -> ()
        | Error e -> Probe.check p "tenant.mapping" false e);
        List.iter
          (fun (_, path) ->
            let rec hops = function
              | x :: (y :: _ as rest) ->
                  let res = Substrate.link_residual s x y in
                  Probe.check p "tenant.link_residual" (res >= -.eps *. Substrate.link_capacity s x y)
                    (Printf.sprintf "plink %d-%d overdrawn by %.6g bit/s" x y (-.res));
                  hops rest
              | _ -> ()
            in
            hops path)
          m.Embed.vpaths;
        Probe.sample p "embed.stretch" (Embed.stretch s m);
        Probe.fpi p a.name (Array.fold_left (fun h v -> (h * 31) + v) 0 m.Embed.nodes);
        1
    | Error r ->
        Probe.addi p "embed.rejected" 1;
        Probe.fpi p a.name (-1);
        Probe.fp p (Embed.rejection_kind r) 0.0;
        0
  in
  let moved = node_used_total s -. a.reserved_before in
  let expected = 6.0 *. vnode_cpu *. float_of_int (admitted - departed) in
  Probe.check p "tenant.reservations" (Float.abs (moved -. expected) < eps)
    (Printf.sprintf "reserved CPU moved by %.6f cores, expected %.6f" moved expected)

(* The scenario's campaign, as [vini run] drives it: the experiment's
   first-to-last-node ping while the engine advances [campaign_s]. *)
let campaign p t ~scale =
  Probe.peak p "embed.max_node_stress" (Substrate.max_node_stress (sub t));
  let iias = Vini.iias t.base in
  let n = Iias.vnode_count iias in
  let ping =
    Ping.start ~stack:(Iias.tap (Iias.vnode iias 0))
      ~dst:(Iias.tap_addr (Iias.vnode iias (n - 1)))
      ~count:(scale.campaign_s * 4) ~mode:(Ping.Interval (Time.ms 250)) ()
  in
  Probe.run p t.engine ~until:(Time.sec scale.campaign_s);
  Probe.harvest_engine p t.engine;
  Probe.harvest_underlay p (Vini.underlay t.vini);
  List.iter (fun i -> Probe.harvest_iias p (Vini.iias i)) (Vini.instances t.vini);
  Probe.fpi p "ping.received" (Ping.received ping);
  match Vini.fluid t.base with
  | None -> Probe.check p "fluid.installed" false "hybrid scenario without a fluid model"
  | Some f ->
      let tot = Fluid.totals f in
      Probe.addi p "scenario.fluid_ticks" (Fluid.ticks f);
      Probe.addi p "scenario.fluid_flows" tot.Fluid.flows;
      Probe.fp p "fluid.offered" tot.Fluid.offered_bytes;
      let rhs = tot.Fluid.drained_bytes +. tot.Fluid.dropped_bytes +. tot.Fluid.backlog_bytes in
      Probe.check p "fluid.conservation"
        (Float.abs (tot.Fluid.offered_bytes -. rhs) <= 1e-9 *. Float.max 1.0 tot.Fluid.offered_bytes)
        (Printf.sprintf "offered %.17g, drained+dropped+backlog %.17g" tot.Fluid.offered_bytes rhs)

(* Every tenant leaves; the substrate must be back where the scenario's
   own experiment left it. *)
let drain p t =
  List.iter
    (fun x -> Tracer.with_span "embed.undeploy" (fun () -> Vini.undeploy t.vini x.inst))
    (List.rev t.resident);
  t.resident <- [];
  let s = sub t in
  let off = ref 0 in
  Array.iteri
    (fun i u -> if Float.abs (Substrate.node_used s i -. u) > eps then incr off)
    t.baseline_nodes;
  List.iter2 (fun now u -> if Float.abs (now -. u) > eps *. Float.max 1.0 u then incr off)
    (link_usage s) t.baseline_links;
  Probe.check p "substrate.zero" (!off = 0)
    (Printf.sprintf "%d accounts not back to their pre-tenant usage" !off)

(* The workload's inputs for the manifest: the spec text and the
   vini.topo/1 document of the substrate it generates. *)
let inputs ~text =
  let doc =
    match Spec_lang.parse text with
    | Ok parsed -> (
        match Spec_lang.substrate parsed with
        | Some (Spec_lang.Sub_generate g) -> Generate.document g
        | Some (Spec_lang.Sub_load path) -> read_file path
        | None -> "")
    | Error e -> fail "%s: %s" spec_path e
  in
  [ (spec_path, text); ("substrate.vini.topo", doc) ]
