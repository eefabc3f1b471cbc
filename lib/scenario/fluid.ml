module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Graph = Vini_topo.Graph
module Underlay = Vini_phys.Underlay
module Plink = Vini_phys.Plink
module Json = Vini_std.Json

type fidelity = Packet | Flow | Hybrid

let fidelity_of_string = function
  | "packet" -> Ok Packet
  | "flow" -> Ok Flow
  | "hybrid" -> Ok Hybrid
  | s ->
      Error
        (Printf.sprintf "unknown fidelity %S (expected packet | flow | hybrid)" s)

let fidelity_to_string = function
  | Packet -> "packet"
  | Flow -> "flow"
  | Hybrid -> "hybrid"

let default_tick = Time.ms 100

type config = {
  fidelity : fidelity;
  tick : Time.t;
  workload : Workload.params;
}

type link_load = {
  util : float;
  queue_delay : Time.t;
  loss : float;
  offered_bps : float;
}

type totals = {
  flows : int;
  offered_bytes : float;
  drained_bytes : float;
  dropped_bytes : float;
  backlog_bytes : float;
}

(* One fluid queue per directed substrate link.  [inflow] accumulates
   demand routed onto the link since the last fold; the fold drains it
   against capacity and leaves [backlog].  The remaining fields are the
   link's load as of the last fold, updated in place ([delay_s] is the
   queue delay in seconds; {!link_load} converts on read).  All fields
   are floats, so the record is flat and updating it allocates nothing. *)
type dir_q = {
  mutable backlog : float;  (* bytes queued *)
  mutable inflow : float;  (* bytes arrived this tick *)
  mutable util : float;
  mutable delay_s : float;
  mutable loss : float;
  mutable offered_bps : float;
}

(* Running byte counts, kept flat for the same reason. *)
type sums = {
  mutable offered : float;
  mutable drained : float;
  mutable dropped : float;
}

type t = {
  cfg : config;
  under : Underlay.t;
  graph : Graph.t;
  stream : Workload.t;
  links : Graph.link array;  (* indexed link table, list order *)
  plinks : Plink.t array;  (* links.(i)'s plink, resolved at install *)
  (* 2 per link, by direction as the plink numbers them: [2i] carries
     min(a, b) -> max(a, b), [2i+1] the reverse. *)
  qs : dir_q array;
  (* [dq.(u * n + v)] is the directed-queue id of the hop u -> v, -1 when
     u and v are not adjacent. *)
  dq : int array;
  (* Scratch for the flow being routed: its directed-queue ids in path
     order.  A path is at most n + 1 hops (see [walk]). *)
  path : int array;
  sums : sums;
  mutable flows : int;
  mutable ticks : int;
}

let dir_of u v = if u < v then 0 else 1

(* The hop queue [qi] carries. *)
let hop_of t qi =
  let l = t.links.(qi / 2) in
  let lo = min l.Graph.a l.Graph.b and hi = max l.Graph.a l.Graph.b in
  if qi mod 2 = 0 then (lo, hi) else (hi, lo)

(* Walk the underlay's next-hop table from [u] to [dst], writing the
   directed-queue ids into [t.path] from index [hops] on.  Returns the
   path length, or -1 for a blackhole: no next hop, no link for it, or
   a routing loop (more than n hops).  Reading the current table on
   every flow lets chaos redirect background load the same way it
   redirects packets. *)
let rec walk t dst u hops =
  if u = dst then hops
  else
    let n = Graph.node_count t.graph in
    if hops > n then -1
    else
      let v = Underlay.next_hop_id t.under ~from:u ~dst in
      if v < 0 then -1
      else
        let q = t.dq.((u * n) + v) in
        if q < 0 then -1
        else begin
          t.path.(hops) <- q;
          walk t dst v (hops + 1)
        end

let capacity_bps t li = t.links.(li).Graph.bandwidth_bps

(* Fluid queues cap at the same drop-tail byte limit the packet path
   uses, so flow-level and packet-level congestion agree on where loss
   starts. *)
let queue_limit = float_of_int Vini_phys.Calibration.link_queue_bytes

let fold t =
  let now_bin = Engine.now (Underlay.engine t.under) in
  let sums = t.sums in
  (* 1. Pull every flow due by now and add its wire bytes along its
     path, once the whole path is known.  Offered load is link-level
     (bytes x hops traversed), so it balances against the per-link
     drain/drop/backlog sums below.  A blackholed flow (no route) is
     dropped whole at the edge. *)
  while Time.compare (Workload.peek_time t.stream) now_bin <= 0 do
    let f = Workload.next t.stream in
    t.flows <- t.flows + 1;
    let bytes = float_of_int f.Workload.wire_bytes in
    let len = walk t f.Workload.dst_node f.Workload.src_node 0 in
    if len < 0 then begin
      sums.offered <- sums.offered +. bytes;
      sums.dropped <- sums.dropped +. bytes
    end
    else
      for i = 0 to len - 1 do
        let q = t.qs.(t.path.(i)) in
        sums.offered <- sums.offered +. bytes;
        q.inflow <- q.inflow +. bytes
      done
  done;
  (* 2. Drain each directed link at capacity for one tick; excess over
     the queue limit is dropped.  Offered = drained + dropped + backlog
     holds exactly (all float additions, same order every run). *)
  let tick_s = Time.to_sec_f t.cfg.tick in
  for qi = 0 to Array.length t.qs - 1 do
    let q = t.qs.(qi) in
    let li = qi / 2 in
    let cap_bytes_s = capacity_bps t li /. 8.0 in
    let cap_tick = cap_bytes_s *. tick_s in
    let up = Plink.is_up t.plinks.(li) in
    let arrived = q.inflow in
    let total = q.backlog +. arrived in
    let drained = if up then Float.min total cap_tick else 0.0 in
    let rest = total -. drained in
    let dropped =
      if up then Float.max 0.0 (rest -. queue_limit) else total
    in
    let backlog = if up then rest -. dropped else 0.0 in
    q.inflow <- 0.0;
    q.backlog <- backlog;
    sums.drained <- sums.drained +. drained;
    sums.dropped <- sums.dropped +. dropped;
    q.util <-
      (if cap_tick > 0.0 then Float.min 1.0 (drained /. cap_tick) else 0.0);
    q.delay_s <- backlog /. cap_bytes_s;
    q.loss <- (if total > 0.0 then Float.min 1.0 (dropped /. total) else 0.0);
    q.offered_bps <- arrived *. 8.0 /. tick_s;
    (* 3. Hybrid coupling: the packet path on this link sees the fluid
       queue as added delay and loss pressure. *)
    if t.cfg.fidelity = Hybrid && up then
      Plink.set_background t.plinks.(li) ~dir:(qi mod 2)
        ~delay:(Time.of_sec_f q.delay_s) ~loss:q.loss
  done

let install ~under cfg =
  if Time.compare cfg.tick Time.zero <= 0 then
    invalid_arg "Fluid.install: tick must be positive";
  (match Workload.validate cfg.workload with
  | Ok () -> ()
  | Error e -> invalid_arg ("Fluid.install: " ^ e));
  let graph = Underlay.graph under in
  let n = Graph.node_count graph in
  let links = Array.of_list (Graph.links graph) in
  let dq = Array.make (n * n) (-1) in
  Array.iteri
    (fun i l ->
      let a = l.Graph.a and b = l.Graph.b in
      dq.((a * n) + b) <- (2 * i) + dir_of a b;
      dq.((b * n) + a) <- (2 * i) + dir_of b a)
    links;
  let t =
    {
      cfg;
      under;
      graph;
      stream = Workload.create cfg.workload ~nodes:n;
      links;
      plinks =
        Array.map (fun l -> Underlay.plink under l.Graph.a l.Graph.b) links;
      qs =
        Array.init
          (2 * Array.length links)
          (fun _ ->
            {
              backlog = 0.0;
              inflow = 0.0;
              util = 0.0;
              delay_s = 0.0;
              loss = 0.0;
              offered_bps = 0.0;
            });
      dq;
      path = Array.make (n + 1) 0;
      sums = { offered = 0.0; drained = 0.0; dropped = 0.0 };
      flows = 0;
      ticks = 0;
    }
  in
  if cfg.fidelity <> Packet then
    Engine.every (Underlay.engine under) cfg.tick (fun () ->
        fold t;
        t.ticks <- t.ticks + 1;
        true);
  t

let config t = t.cfg

let totals t =
  let backlog = Array.fold_left (fun acc q -> acc +. q.backlog) 0.0 t.qs in
  {
    flows = t.flows;
    offered_bytes = t.sums.offered;
    drained_bytes = t.sums.drained;
    dropped_bytes = t.sums.dropped;
    backlog_bytes = backlog;
  }

let load_of q =
  {
    util = q.util;
    queue_delay = Time.of_sec_f q.delay_s;
    loss = q.loss;
    offered_bps = q.offered_bps;
  }

let link_load t ~a ~b =
  let n = Graph.node_count t.graph in
  let qi = if a < 0 || b < 0 || a >= n || b >= n then -1 else t.dq.((a * n) + b) in
  if qi < 0 then raise Not_found else load_of t.qs.(qi)

let route t ~src ~dst =
  let len = walk t dst src 0 in
  if len < 0 then None
  else
    Some (List.init len (fun i -> hop_of t t.path.(i)))

let ticks t = t.ticks

let to_json t =
  let tot = totals t in
  let per_link =
    List.concat
      (List.init (Array.length t.links) (fun li ->
           List.map
             (fun d ->
               let qi = (2 * li) + d in
               let q = t.qs.(qi) in
               let last = load_of q in
               let u, v = hop_of t qi in
               Json.Obj
                 [
                   ("from", Json.Str (Graph.name t.graph u));
                   ("to", Json.Str (Graph.name t.graph v));
                   ("util", Json.Num last.util);
                   ("queue_delay_ms", Json.Num (Time.to_ms_f last.queue_delay));
                   ("loss", Json.Num last.loss);
                   ("offered_bps", Json.Num last.offered_bps);
                   ("backlog_bytes", Json.Num q.backlog);
                 ])
             [ 0; 1 ]))
  in
  Json.Obj
    [
      ("fidelity", Json.Str (fidelity_to_string t.cfg.fidelity));
      ("tick_ms", Json.Num (Time.to_ms_f t.cfg.tick));
      ("ticks", Json.Num (float_of_int t.ticks));
      ("flows", Json.Num (float_of_int tot.flows));
      ("offered_bytes", Json.Num tot.offered_bytes);
      ("drained_bytes", Json.Num tot.drained_bytes);
      ("dropped_bytes", Json.Num tot.dropped_bytes);
      ("backlog_bytes", Json.Num tot.backlog_bytes);
      ("links", Json.Arr per_link);
    ]
