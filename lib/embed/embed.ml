module Graph = Vini_topo.Graph

type mapping = { nodes : int array; vpaths : ((int * int) * int list) list }

type rejection =
  | Too_large of { vnodes : int; pnodes : int }
  | Pin_invalid of { vnode : int; pnode : int; reason : string }
  | Node_exhausted of { vnode : int; demand : float; best_residual : float }
  | Link_exhausted of { va : int; vb : int; demand : float }
  | Unreachable of { va : int; vb : int }

let rejection_kind = function
  | Too_large _ -> "too_large"
  | Pin_invalid _ -> "pin_invalid"
  | Node_exhausted _ -> "node_exhausted"
  | Link_exhausted _ -> "link_exhausted"
  | Unreachable _ -> "unreachable"

let rejection_to_string = function
  | Too_large { vnodes; pnodes } ->
      Printf.sprintf
        "too-large: %d virtual nodes exceed %d live physical nodes" vnodes
        pnodes
  | Pin_invalid { vnode; pnode; reason } ->
      Printf.sprintf "pin-invalid: vnode %d on pnode %d: %s" vnode pnode reason
  | Node_exhausted { vnode; demand; best_residual } ->
      Printf.sprintf
        "node-exhausted: vnode %d demands %.3f cores; best residual %.3f"
        vnode demand best_residual
  | Link_exhausted { va; vb; demand } ->
      Printf.sprintf
        "link-exhausted: vlink %d-%d demands %.0f bps; no capacity-feasible \
         path"
        va vb demand
  | Unreachable { va; vb } ->
      Printf.sprintf "unreachable: no live physical path for vlink %d-%d" va vb

exception Reject of rejection

let eps = 1e-9
let alpha = 8.0
let key a b = (min a b, max a b)

(* Solver-local scratch: residuals snapshotted from the substrate so
   [solve] can price incrementally without touching shared state. *)
type st = {
  sub : Substrate.t;
  sg : Graph.t;
  nres : float array;
  lres : (int * int, float) Hashtbl.t;
}

let snapshot sub =
  let sg = Substrate.graph sub in
  let lres = Hashtbl.create (Graph.link_count sg) in
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

let local_link_residual st a b =
  match Hashtbl.find_opt st.lres (key a b) with Some r -> r | None -> 0.0

let reserve_local_path st path bw =
  if bw > 0.0 then
    let rec go = function
      | a :: (b :: _ as rest) ->
          let k = key a b in
          Hashtbl.replace st.lres k (local_link_residual st a b -. bw);
          go rest
      | [ _ ] | [] -> ()
    in
    go path

(* Capacity-constrained Dijkstra on the substrate with float weights:
   only live links with [need] bits/s residual and live nodes are
   traversable (the source itself is not checked).  Heap keyed on
   (dist, id): extraction order — and therefore every [prev] assignment
   and tie-break — matches an O(n^2) unvisited-minimum scan exactly, so
   embeddings are byte-identical to it at O(m log n) per search.  Runs
   to completion, or stops as soon as [dst] is settled; returns the
   [dist] and [prev] arrays. *)
let search st ~weight ~need ?(dst = -1) src =
  let n = Graph.node_count st.sg in
  let dist = Array.make n infinity in
  let prev = Array.make n (-1) in
  let visited = Array.make n false in
  dist.(src) <- 0.0;
  let heap =
    Vini_std.Heap.create ~cmp:(fun (d1, n1) (d2, n2) ->
        let c = Float.compare d1 d2 in
        if c <> 0 then c else compare n1 n2)
  in
  Vini_std.Heap.push heap (0.0, src);
  let finished = ref false in
  while not !finished do
    match Vini_std.Heap.pop heap with
    | None -> finished := true
    | Some (_, u) when u = dst -> finished := true
    | Some (_, u) when visited.(u) -> () (* stale heap entry *)
    | Some (_, u) ->
        visited.(u) <- true;
        List.iter
          (fun (v, l) ->
            if
              (not visited.(v))
              && Substrate.node_up st.sub v
              && Substrate.link_up st.sub u v
              && local_link_residual st u v +. eps >= need
            then begin
              let d = dist.(u) +. weight l in
              if d < dist.(v) then begin
                dist.(v) <- d;
                prev.(v) <- u;
                Vini_std.Heap.push heap (d, v)
              end
            end)
          (Graph.neighbors st.sg u)
  done;
  (dist, prev)

let constrained_path st ~weight ~need src dst =
  if src = dst then Some [ src ]
  else begin
    let dist, prev = search st ~weight ~need ~dst src in
    if dist.(dst) = infinity then None
    else begin
      let rec build acc v =
        if v = src then src :: acc else build (v :: acc) prev.(v)
      in
      Some (build [] dst)
    end
  end

(* Every node's constrained distance to [host].  Link weights, liveness
   and residuals are keyed on the normalised link, so one search from the
   host prices every candidate at once instead of one search per
   candidate.  A down host is reachable from nowhere: a forward search
   could never enter it. *)
let distances_to st ~weight ~need host =
  if Substrate.node_up st.sub host then fst (search st ~weight ~need host)
  else Array.make (Graph.node_count st.sg) infinity

let congestion_weight st ~bw (l : Graph.link) =
  let a = l.Graph.a and b = l.Graph.b in
  let cap = Substrate.link_capacity st.sub a b in
  if cap <= 0.0 then 1.0
  else
    let used = cap -. local_link_residual st a b in
    1.0 +. (alpha ** ((used +. bw) /. cap)) -. (alpha ** (used /. cap))

let igp_weight (l : Graph.link) = float_of_int l.Graph.weight
let hop_weight (_ : Graph.link) = 1.0

let apply_pins st ~vtopo (req : Request.t) nodes used =
  let vn = Graph.node_count vtopo and pn = Graph.node_count st.sg in
  List.iter
    (fun (v, p) ->
      let fail reason = raise (Reject (Pin_invalid { vnode = v; pnode = p; reason })) in
      if v < 0 || v >= vn then fail "virtual node out of range";
      if p < 0 || p >= pn then fail "physical node out of range";
      if nodes.(v) >= 0 then fail "virtual node pinned twice";
      if used.(p) then fail "physical node already taken";
      if not (Substrate.node_up st.sub p) then fail "physical node is down";
      let dem = req.Request.cpu_demand v in
      if st.nres.(p) +. eps < dem then
        fail
          (Printf.sprintf "insufficient CPU (demand %.3f, residual %.3f)" dem
             st.nres.(p));
      nodes.(v) <- p;
      used.(p) <- true;
      st.nres.(p) <- st.nres.(p) -. dem)
    req.Request.pins

(* Best-fit: unpinned vnodes in descending CPU demand (ties: lower id)
   each take the live unused pnode with the most residual CPU (ties:
   lower id). *)
let place_greedy st ~vtopo (req : Request.t) nodes used =
  let vn = Graph.node_count vtopo and pn = Graph.node_count st.sg in
  let unpinned = List.filter (fun v -> nodes.(v) = -1) (List.init vn Fun.id) in
  let ordered =
    List.sort
      (fun v1 v2 ->
        match compare (req.Request.cpu_demand v2) (req.Request.cpu_demand v1) with
        | 0 -> compare v1 v2
        | c -> c)
      unpinned
  in
  List.iter
    (fun v ->
      let dem = req.Request.cpu_demand v in
      let best = ref (-1) and best_res = ref neg_infinity in
      for p = 0 to pn - 1 do
        if Substrate.node_up st.sub p && (not used.(p)) && st.nres.(p) > !best_res
        then begin
          best := p;
          best_res := st.nres.(p)
        end
      done;
      if !best = -1 || !best_res +. eps < dem then
        raise
          (Reject
             (Node_exhausted
                {
                  vnode = v;
                  demand = dem;
                  best_residual = (if !best = -1 then 0.0 else !best_res);
                }));
      nodes.(v) <- !best;
      used.(!best) <- true;
      st.nres.(!best) <- st.nres.(!best) -. dem)
    ordered

(* Exponential congestion increment of hosting [dem] more cores on [p]. *)
let node_cost st ~dem p =
  let cap = Substrate.node_capacity st.sub p in
  if cap <= 0.0 then infinity
  else
    let u0 = cap -. st.nres.(p) in
    (alpha ** ((u0 +. dem) /. cap)) -. (alpha ** (u0 /. cap))

(* Even et al.-style pricing of a host for [vnode]: the node increment
   plus the congestion-priced constrained path to every placed virtual
   neighbour's host.  [nbrs] lists those neighbours as
   [(ends, host, bw)] — the vlink endpoints a rejection names, the host,
   the vlink's demand — in the order failures are attributed.  One search
   per neighbour prices all candidates; the hop-count reachability that
   tells [Link_exhausted] from [Unreachable] is searched only if needed.
   Exact-minimum ties are broken by (seed + vnode) mod k over the
   id-sorted tie set — stable and byte-identical across equal seeds.
   With no candidate, the first failure (candidate ascending, neighbour
   in list order) is the rejection. *)
let choose st (req : Request.t) ~vnode ~dem ~used nbrs =
  let pn = Graph.node_count st.sg in
  let priced =
    List.map
      (fun (ends, host, bw) ->
        ( ends,
          bw,
          distances_to st ~weight:(congestion_weight st ~bw) ~need:bw host,
          lazy (distances_to st ~weight:hop_weight ~need:0.0 host) ))
      nbrs
  in
  let cands = ref [] and best_res = ref 0.0 and any_cap = ref false in
  let cap_blocked = ref None and live_blocked = ref None in
  for p = 0 to pn - 1 do
    if Substrate.node_up st.sub p && not used.(p) then begin
      if st.nres.(p) > !best_res then best_res := st.nres.(p);
      if st.nres.(p) +. eps >= dem then begin
        any_cap := true;
        let rec price pcost = function
          | [] -> cands := (node_cost st ~dem p +. pcost, p) :: !cands
          | (ends, bw, dist, reach) :: rest ->
              if dist.(p) < infinity then price (pcost +. dist.(p)) rest
              else if (Lazy.force reach).(p) < infinity then begin
                if !cap_blocked = None then cap_blocked := Some (ends, bw)
              end
              else if !live_blocked = None then live_blocked := Some ends
        in
        price 0.0 priced
      end
    end
  done;
  match List.rev !cands with
  | [] -> (
      if not !any_cap then
        raise
          (Reject
             (Node_exhausted { vnode; demand = dem; best_residual = !best_res }));
      match (!cap_blocked, !live_blocked) with
      | Some ((va, vb), bw), _ ->
          raise (Reject (Link_exhausted { va; vb; demand = bw }))
      | None, Some (va, vb) -> raise (Reject (Unreachable { va; vb }))
      | None, None -> assert false)
  | cands ->
      let minc =
        List.fold_left (fun acc (c, _) -> Float.min acc c) infinity cands
      in
      let ties =
        List.filter
          (fun (c, _) -> c -. minc <= 1e-9 *. (1.0 +. Float.abs minc))
          cands
      in
      let k = List.length ties in
      let idx = (((req.Request.seed + vnode) mod k) + k) mod k in
      snd (List.nth ties idx)

(* Online placement: vnodes arrive in id order, each on the cheapest
   host by [choose]. *)
let place_online st ~vtopo (req : Request.t) nodes used =
  for v = 0 to Graph.node_count vtopo - 1 do
    if nodes.(v) = -1 then begin
      let dem = req.Request.cpu_demand v in
      let nbrs =
        List.filter_map
          (fun (u, vl) ->
            if nodes.(u) >= 0 then
              Some ((v, u), nodes.(u), req.Request.bw_demand vl)
            else None)
          (Graph.neighbors vtopo v)
      in
      let p = choose st req ~vnode:v ~dem ~used nbrs in
      nodes.(v) <- p;
      used.(p) <- true;
      st.nres.(p) <- st.nres.(p) -. dem
    end
  done

(* A capacity-feasible path for vlink [va]-[vb] from host [a] to host
   [b], reserved in the snapshot, or the rejection saying why none
   exists. *)
let route_vlink st ~weight ~bw (va, vb) a b =
  match constrained_path st ~weight ~need:bw a b with
  | Some path ->
      reserve_local_path st path bw;
      path
  | None -> (
      match constrained_path st ~weight:hop_weight ~need:0.0 a b with
      | Some _ -> raise (Reject (Link_exhausted { va; vb; demand = bw }))
      | None -> raise (Reject (Unreachable { va; vb })))

(* Map every virtual link onto a capacity-feasible physical path,
   reserving bandwidth incrementally (vlinks in normalised sorted order
   so the reservation sequence is deterministic). *)
let map_paths st ~vtopo (req : Request.t) nodes =
  let vlinks =
    List.sort
      (fun (l1 : Graph.link) (l2 : Graph.link) ->
        compare (key l1.Graph.a l1.Graph.b) (key l2.Graph.a l2.Graph.b))
      (Graph.links vtopo)
  in
  List.map
    (fun (l : Graph.link) ->
      let va, vb = key l.Graph.a l.Graph.b in
      let pa = nodes.(va) and pb = nodes.(vb) in
      let bw = req.Request.bw_demand l in
      if pa = pb then ((va, vb), [ pa ])
      else
        let weight =
          match req.Request.algo with
          | Request.Greedy -> igp_weight
          | Request.Online -> congestion_weight st ~bw
        in
        ((va, vb), route_vlink st ~weight ~bw (va, vb) pa pb))
    vlinks

let solve sub ~vtopo (req : Request.t) =
  let st = snapshot sub in
  let vn = Graph.node_count vtopo and pn = Graph.node_count st.sg in
  let up_count = ref 0 in
  for p = 0 to pn - 1 do
    if Substrate.node_up sub p then incr up_count
  done;
  try
    if vn > !up_count then
      raise (Reject (Too_large { vnodes = vn; pnodes = !up_count }));
    let nodes = Array.make vn (-1) in
    let used = Array.make pn false in
    apply_pins st ~vtopo req nodes used;
    (match req.Request.algo with
    | Request.Greedy -> place_greedy st ~vtopo req nodes used
    | Request.Online -> place_online st ~vtopo req nodes used);
    let vpaths = map_paths st ~vtopo req nodes in
    Ok { nodes; vpaths }
  with Reject r -> Error r

let iter_mapping ?(except = []) ~vtopo (req : Request.t) m ~node ~path =
  Array.iteri
    (fun v p ->
      if not (List.mem v except) then node p (req.Request.cpu_demand v))
    m.nodes;
  List.iter
    (fun ((va, vb), p) ->
      if (not (List.mem va except)) && not (List.mem vb except) then
        match Graph.find_link vtopo va vb with
        | Some l -> path p (req.Request.bw_demand l)
        | None -> ())
    m.vpaths

let commit ?except sub ~vtopo req m =
  iter_mapping ?except ~vtopo req m
    ~node:(Substrate.reserve_node sub)
    ~path:(Substrate.reserve_path sub)

let withdraw ?except sub ~vtopo req m =
  iter_mapping ?except ~vtopo req m
    ~node:(Substrate.release_node sub)
    ~path:(Substrate.release_path sub)

(* One virtual node's own share of a mapping: its CPU plus the bandwidth
   of its incident virtual links' paths.  A path whose other endpoint is
   in [except] is skipped — when several vnodes' shares are out of the
   substrate at once (parked after rejected re-embeds, or mid-migration),
   a path between two of them must be moved by exactly one of the two
   delta operations, not both. *)
let iter_delta ?(except = []) ~vtopo (req : Request.t) m ~vnode ~node ~path =
  node m.nodes.(vnode) (req.Request.cpu_demand vnode);
  List.iter
    (fun ((va, vb), p) ->
      if
        (va = vnode || vb = vnode)
        && (not (List.mem va except))
        && not (List.mem vb except)
      then
        match Graph.find_link vtopo va vb with
        | Some l -> path p (req.Request.bw_demand l)
        | None -> ())
    m.vpaths

let commit_delta ?except sub ~vtopo req m ~vnode =
  iter_delta ?except ~vtopo req m ~vnode
    ~node:(Substrate.reserve_node sub)
    ~path:(Substrate.reserve_path sub)

let withdraw_delta ?except sub ~vtopo req m ~vnode =
  iter_delta ?except ~vtopo req m ~vnode
    ~node:(Substrate.release_node sub)
    ~path:(Substrate.release_path sub)

let admit sub ~vtopo req =
  match solve sub ~vtopo req with
  | Ok m ->
      commit sub ~vtopo req m;
      Substrate.note_admitted sub;
      Ok m
  | Error r ->
      Substrate.note_rejected sub;
      Error r

let reembed sub ~vtopo (req : Request.t) m ~vnode =
  let pins = ref [] in
  Array.iteri (fun v p -> if v <> vnode then pins := (v, p) :: !pins) m.nodes;
  solve sub ~vtopo { req with Request.pins = List.rev !pins }

(* Price and route a make-before-break move of one virtual node.  Every
   survivor keeps its host {e and} its exact committed paths; only the
   moving vnode's host and incident paths change.  Pure, like [solve],
   but against a snapshot in which the mover's own share (CPU +
   incident-path bandwidth) has been credited back: the plan prices the
   steady state after the old share is withdrawn, even though the
   migration double-provisions in between ([commit_delta] on the new
   mapping while the old share is still held, [withdraw_delta] on the
   old one only after the flip commits). *)
let plan_move sub ~vtopo (req : Request.t) m ~vnode ?target () =
  let vn = Graph.node_count vtopo in
  if vnode < 0 || vnode >= vn then
    invalid_arg "Embed.plan_move: virtual node out of range";
  let st = snapshot sub in
  let pn = Graph.node_count st.sg in
  let dem = req.Request.cpu_demand vnode in
  st.nres.(m.nodes.(vnode)) <- st.nres.(m.nodes.(vnode)) +. dem;
  List.iter
    (fun ((va, vb), p) ->
      if va = vnode || vb = vnode then
        match Graph.find_link vtopo va vb with
        | Some l ->
            let bw = req.Request.bw_demand l in
            if bw > 0.0 then
              let rec credit = function
                | a :: (b :: _ as rest) ->
                    Hashtbl.replace st.lres (key a b)
                      (local_link_residual st a b +. bw);
                    credit rest
                | [ _ ] | [] -> ()
              in
              credit p
        | None -> ())
    m.vpaths;
  let used = Array.make pn false in
  Array.iteri (fun v p -> if v <> vnode then used.(p) <- true) m.nodes;
  (* Final incident paths for the chosen host, reserved incrementally in
     the mapping's normalised vlink order so the mover's own paths cannot
     overcommit a link among themselves. *)
  let route p =
    List.filter_map
      (fun ((va, vb), _) ->
        if va = vnode || vb = vnode then begin
          let u = if va = vnode then vb else va in
          match Graph.find_link vtopo va vb with
          | None -> None
          | Some l ->
              let bw = req.Request.bw_demand l in
              let path =
                route_vlink st ~weight:(congestion_weight st ~bw) ~bw (va, vb)
                  p m.nodes.(u)
              in
              Some ((va, vb), if va = vnode then path else List.rev path)
        end
        else None)
      m.vpaths
  in
  let build p =
    let paths = route p in
    let nodes = Array.copy m.nodes in
    nodes.(vnode) <- p;
    let vpaths =
      List.map
        (fun ((va, vb), old) ->
          match List.assoc_opt (va, vb) paths with
          | Some np -> ((va, vb), np)
          | None -> ((va, vb), old))
        m.vpaths
    in
    { nodes; vpaths }
  in
  try
    match target with
    | Some p ->
        let fail reason =
          raise (Reject (Pin_invalid { vnode; pnode = p; reason }))
        in
        if p < 0 || p >= pn then fail "physical node out of range";
        if not (Substrate.node_up st.sub p) then fail "physical node is down";
        if used.(p) then fail "physical node already hosts this slice";
        if st.nres.(p) +. eps < dem then
          fail
            (Printf.sprintf "insufficient CPU (demand %.3f, residual %.3f)" dem
               st.nres.(p));
        Ok (build p)
    | None ->
        (* Same cost model as [place_online], against the neighbours'
           unmoved hosts; a crashed survivor's host prices as
           unreachable. *)
        let nbrs =
          List.map
            (fun (u, vl) -> (key vnode u, m.nodes.(u), req.Request.bw_demand vl))
            (List.sort
               (fun (u1, _) (u2, _) -> compare u1 u2)
               (Graph.neighbors vtopo vnode))
        in
        Ok (build (choose st req ~vnode ~dem ~used nbrs))
  with Reject r -> Error r

exception Check_failed of string

let check sub ~vtopo (req : Request.t) m =
  let sg = Substrate.graph sub in
  let vn = Graph.node_count vtopo and pn = Graph.node_count sg in
  let err fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt in
  try
    if Array.length m.nodes <> vn then
      err "mapping covers %d of %d virtual nodes" (Array.length m.nodes) vn;
    let seen = Array.make pn false in
    Array.iteri
      (fun v p ->
        if p < 0 || p >= pn then
          err "vnode %d mapped to out-of-range pnode %d" v p;
        if seen.(p) then err "pnode %d hosts two virtual nodes" p;
        seen.(p) <- true;
        if not (Substrate.node_up sub p) then
          err "vnode %d mapped to down pnode %d" v p;
        let dem = req.Request.cpu_demand v in
        if Substrate.node_residual sub p +. eps < dem then
          err "pnode %d lacks CPU for vnode %d (demand %.3f, residual %.3f)" p
            v dem
            (Substrate.node_residual sub p))
      m.nodes;
    List.iter
      (fun (l : Graph.link) ->
        let k = key l.Graph.a l.Graph.b in
        if not (List.mem_assoc k m.vpaths) then
          err "vlink %d-%d has no mapped path" (fst k) (snd k))
      (Graph.links vtopo);
    let lload = Hashtbl.create 16 in
    List.iter
      (fun ((va, vb), path) ->
        match Graph.find_link vtopo va vb with
        | None -> err "mapped path for nonexistent vlink %d-%d" va vb
        | Some l ->
            let bw = req.Request.bw_demand l in
            (match path with
            | [] -> err "empty path for vlink %d-%d" va vb
            | first :: _ ->
                let last = List.nth path (List.length path - 1) in
                if first <> m.nodes.(va) || last <> m.nodes.(vb) then
                  err "path for vlink %d-%d does not join its endpoints" va vb);
            let rec go = function
              | a :: (b :: _ as rest) ->
                  (match Graph.find_link sg a b with
                  | None ->
                      err "path for vlink %d-%d uses non-adjacent pnodes %d-%d"
                        va vb a b
                  | Some _ ->
                      if not (Substrate.link_up sub a b) then
                        err "path for vlink %d-%d crosses down plink %d-%d" va
                          vb a b);
                  if bw > 0.0 then begin
                    let k = key a b in
                    let cur =
                      Option.value ~default:0.0 (Hashtbl.find_opt lload k)
                    in
                    Hashtbl.replace lload k (cur +. bw)
                  end;
                  go rest
              | [ _ ] | [] -> ()
            in
            go path)
      m.vpaths;
    Hashtbl.iter
      (fun (a, b) bw ->
        if Substrate.link_residual sub a b +. eps < bw then
          err "plink %d-%d lacks bandwidth (demand %.0f, residual %.0f)" a b bw
            (Substrate.link_residual sub a b))
      lload;
    Ok ()
  with Check_failed s -> Error s

let path_stretch sub path =
  match path with
  | [] | [ _ ] -> 1.0
  | first :: _ -> (
      let sg = Substrate.graph sub in
      let last = List.nth path (List.length path - 1) in
      let actual = Graph.path_weight sg path in
      match Graph.shortest_path sg first last with
      | Some sp ->
          let best = Graph.path_weight sg sp in
          if best = 0 then 1.0 else float_of_int actual /. float_of_int best
      | None -> 1.0)

let stretch sub m =
  let ps =
    List.filter_map
      (fun (_, path) ->
        match path with
        | _ :: _ :: _ -> Some (path_stretch sub path)
        | _ -> None)
      m.vpaths
  in
  match ps with
  | [] -> 1.0
  | _ -> List.fold_left ( +. ) 0.0 ps /. float_of_int (List.length ps)
