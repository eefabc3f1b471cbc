module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Packet = Vini_net.Packet
module Graph = Vini_topo.Graph
module Addr = Vini_net.Addr

type event =
  | Link_down of Graph.node_id * Graph.node_id
  | Link_up of Graph.node_id * Graph.node_id
  | Node_down of Graph.node_id
  | Node_up of Graph.node_id

type node_profile = { speed_ghz : float; contention : Cpu.contention }

let dedicated_profile ~speed_ghz = { speed_ghz; contention = Cpu.Dedicated }

let planetlab_profile ~speed_ghz =
  {
    speed_ghz;
    contention =
      Cpu.Shared { active_sampler = Calibration.shared_active_slices () };
  }

type t = {
  engine : Engine.t;
  graph : Graph.t;
  pnodes : Pnode.t array;
  by_addr : (Addr.t, Pnode.t) Hashtbl.t;
  (* Dense link state, [n * n] entries.  [hops.(u * n + v)] is
     [Some (v, plink)] when a link joins [u] and [v] (both directions
     share the plink), [None] otherwise; the entries are built once at
     create, so forwarding-table rebuilds allocate nothing.
     [link_up.(min * n + max)] is the administrative state, [false] for
     non-adjacent pairs. *)
  hops : (int * Plink.t) option array;
  link_up : bool array;
  mask_failures : bool;
  (* nh.(from).(dst) = first hop from [from] on its shortest-path tree
     towards [dst], -1 when there is none (or [from = dst]).  Each row is
     derived from that source's Dijkstra [prev] row and reused in place
     on every rebuild. *)
  nh : int array array;
  (* Per-(from, dst) forwarding cache: the [hops] entry of the next hop
     when a usable (existing, administratively up) link leads that way,
     [None] when the packet would blackhole.  Refreshed in place by
     [rebuild_fwd] on every route recomputation and link-state flip, so
     the per-packet fast path is two array loads. *)
  fwd : (int * Plink.t) option array array;
  (* Dense addr → node-id table for the per-packet destination resolve.
     [addr_idx.(Addr.to_int a - addr_base)] is the node id, or -1 for a
     non-node address.  Built only when node addresses span a small range
     (the default 198.32.154/155 scheme always qualifies); [ [||] ] means
     "fall back to [by_addr]". *)
  addr_base : int;
  addr_idx : int array;
  mutable subscribers : (event -> unit) list;
  mutable blackholed : int;
}

let key n a b = if a < b then (a * n) + b else (b * n) + a

let default_addr i =
  if i < 246 then Addr.of_octets 198 32 154 (10 + i)
  else Addr.add (Addr.of_octets 198 32 155 0) (i - 246)

(* The [hops] entry for [a -> b]; [None] when they are not adjacent or
   not nodes at all. *)
let hop t a b =
  let n = Array.length t.pnodes in
  if a < 0 || b < 0 || a >= n || b >= n then None else t.hops.((a * n) + b)

let weight_when_up t l =
  let up = t.link_up.(key (Array.length t.pnodes) l.Graph.a l.Graph.b) in
  (* A link into a crashed machine is as unusable as a cut fiber. *)
  let ends_up = Pnode.is_up t.pnodes.(l.Graph.a) && Pnode.is_up t.pnodes.(l.Graph.b) in
  if up && ends_up then l.Graph.weight else 100_000_000

let unresolved = -2

(* Fill [row] (rooted at [from]) from that source's [prev] row in O(n):
   the first hop towards [d] is [d] itself when [prev d = from], else the
   first hop towards [prev d].  A node on a [prev] cycle resolves to -1
   rather than looping. *)
let fill_row row prev ~from =
  Array.fill row 0 (Array.length row) unresolved;
  row.(from) <- -1;
  let rec resolve d =
    let r = row.(d) in
    if r <> unresolved then r
    else begin
      row.(d) <- -1;
      let r =
        match prev.(d) with
        | None -> -1
        | Some p -> if p = from then d else resolve p
      in
      row.(d) <- r;
      r
    end
  in
  for d = 0 to Array.length row - 1 do
    ignore (resolve d)
  done

let rebuild_fwd t =
  let n = Array.length t.pnodes in
  for from = 0 to n - 1 do
    let nh_row = t.nh.(from) and fwd_row = t.fwd.(from) in
    for dst = 0 to n - 1 do
      let h = nh_row.(dst) in
      fwd_row.(dst) <-
        (if h >= 0 && t.link_up.(key n from h) then t.hops.((from * n) + h)
         else None)
    done
  done

(* Per-packet destination resolve: a bounds check plus one array load on
   the dense path; the hashtable only serves scattered custom [addr_of]
   schemes.  Returns -1 for addresses that name no node. *)
let node_id_of_dst t a =
  let len = Array.length t.addr_idx in
  if len > 0 then begin
    let i = Addr.to_int a - t.addr_base in
    if i >= 0 && i < len then Array.unsafe_get t.addr_idx i else -1
  end
  else
    match Hashtbl.find_opt t.by_addr a with
    | Some p -> Pnode.id p
    | None -> -1

let recompute_routes t =
  let weight_of = weight_when_up t in
  Array.iteri
    (fun src row ->
      let _, prev = Graph.dijkstra ~weight_of t.graph src in
      fill_row row prev ~from:src)
    t.nh;
  rebuild_fwd t

let rec create ~engine ~rng ~graph
    ?(profile = fun _ -> dedicated_profile ~speed_ghz:Calibration.reference_ghz)
    ?(addr_of = default_addr) ?(mask_failures = true) () =
  let n = Graph.node_count graph in
  let pnodes =
    Array.init n (fun i ->
        let p = profile i in
        let cpu =
          Cpu.create ~engine ~rng:(Vini_std.Rng.split rng)
            ~speed_ghz:p.speed_ghz ~contention:p.contention
        in
        Pnode.create ~engine ~rng:(Vini_std.Rng.split rng) ~id:i
          ~name:(Graph.name graph i) ~addr:(addr_of i) ~cpu ())
  in
  let by_addr = Hashtbl.create n in
  Array.iter (fun p -> Hashtbl.replace by_addr (Pnode.addr p) p) pnodes;
  let addr_base, addr_idx =
    if n = 0 then (0, [||])
    else begin
      let lo = ref max_int and hi = ref 0 in
      Array.iter
        (fun p ->
          let a = Addr.to_int (Pnode.addr p) in
          if a < !lo then lo := a;
          if a > !hi then hi := a)
        pnodes;
      let span = !hi - !lo + 1 in
      (* Custom [addr_of] schemes can scatter addresses arbitrarily; only
         densify when the table stays proportional to the node count. *)
      if span > (4 * n) + 64 then (0, [||])
      else begin
        let idx = Array.make span (-1) in
        Array.iter
          (fun p -> idx.(Addr.to_int (Pnode.addr p) - !lo) <- Pnode.id p)
          pnodes;
        (!lo, idx)
      end
    end
  in
  let hops = Array.make (n * n) None in
  let link_up = Array.make (n * n) false in
  List.iter
    (fun (l : Graph.link) ->
      let plink =
        Plink.create ~engine ~rng:(Vini_std.Rng.split rng)
          ~name:
            (Printf.sprintf "plink.%s-%s" (Graph.name graph l.a)
               (Graph.name graph l.b))
          ~bandwidth_bps:l.bandwidth_bps ~delay:l.delay ~loss:l.loss ()
      in
      hops.((l.a * n) + l.b) <- Some (l.b, plink);
      hops.((l.b * n) + l.a) <- Some (l.a, plink);
      link_up.(key n l.a l.b) <- true)
    (Graph.links graph);
  let t =
    {
      engine;
      graph;
      pnodes;
      by_addr;
      addr_base;
      addr_idx;
      hops;
      link_up;
      mask_failures;
      nh = Array.init n (fun _ -> Array.make n (-1));
      fwd = Array.init n (fun _ -> Array.make n None);
      subscribers = [];
      blackholed = 0;
    }
  in
  recompute_routes t;
  Array.iter (fun p -> Pnode.set_tx p (fun pkt -> originate t p pkt)) pnodes;
  t

and next_hop_id t ~from ~dst = t.nh.(from).(dst)

(* [inline] is threaded from call sites that are in tail position of an
   event callback (plink arrivals, kernel-work continuations): it lets the
   receive-side NIC hop join the current breath.  The [originate] path
   reaches [forward] mid-callback and keeps the default. *)
and forward ?(inline = false) t nid pkt =
  let node = t.pnodes.(nid) in
  if Addr.equal pkt.Packet.dst (Pnode.addr node) then
    Pnode.deliver_local ~inline node pkt
  else begin
    let dst_id = node_id_of_dst t pkt.Packet.dst in
    if dst_id < 0 then t.blackholed <- t.blackholed + 1
    else
        match t.fwd.(nid).(dst_id) with
        | None -> t.blackholed <- t.blackholed + 1
        | Some (nh, plink) -> (
            match Packet.decr_ttl pkt with
              | None ->
                  (* TTL expired here; notify the source.  The notice
                     inherits the dying packet's provenance so forensics
                     show the expiry on the original packet's tree. *)
                  if Vini_sim.Span.on () then
                    Vini_sim.Span.drop ~pkt:pkt.Packet.id
                      ~orig:pkt.Packet.orig ~component:(Pnode.name node)
                      ~reason:"ttl-expired" ~bytes:(Packet.size pkt) ();
                  let notice =
                    Packet.icmp ~orig:pkt.Packet.orig ~src:(Pnode.addr node)
                      ~dst:pkt.Packet.src
                      (Packet.Time_exceeded
                         { orig_src = pkt.Packet.src; orig_dst = pkt.Packet.dst })
                  in
                  originate t node notice
              | Some pkt ->
                  let dir = if nid < nh then 0 else 1 in
                  Plink.transmit plink ~dir pkt ~deliver:(fun pkt ->
                      arrive t nh pkt))
  end

and arrive t nid pkt =
  let node = t.pnodes.(nid) in
  if Addr.equal pkt.Packet.dst (Pnode.addr node) then
    Pnode.deliver_local ~inline:true node pkt
  else Pnode.rx_overhead node pkt ~k:(fun () -> forward ~inline:true t nid pkt)

and originate t node pkt =
  if Addr.equal pkt.Packet.dst (Pnode.addr node) then begin
    (* Loopback: deliver promptly, no NIC traversal. *)
    let engine = Pnode.engine node in
    ignore
      (Engine.after engine (Time.us 5) (fun () ->
           Ipstack.deliver (Pnode.stack node) pkt))
  end
  else forward t (Pnode.id node) pkt

let engine t = t.engine
let graph t = t.graph
let node t i = t.pnodes.(i)
let node_by_name t n = t.pnodes.(Graph.id_of_name t.graph n)
let node_of_addr t a = Hashtbl.find_opt t.by_addr a
let addr t i = Pnode.addr t.pnodes.(i)
let nodes t = Array.to_list t.pnodes

let plink t a b =
  match hop t a b with Some (_, l) -> l | None -> raise Not_found

let set_link_state t a b up =
  match hop t a b with
  | None -> raise Not_found
  | Some (_, plink) ->
      let k = key (Array.length t.pnodes) a b in
      if t.link_up.(k) <> up then begin
        t.link_up.(k) <- up;
        Plink.set_up plink up;
        (* Masking reroutes (which rebuilds the forwarding cache); without
           masking the routes stand but the cache must still see the flip. *)
        if t.mask_failures then recompute_routes t else rebuild_fwd t;
        let ev = if up then Link_up (a, b) else Link_down (a, b) in
        List.iter (fun f -> f ev) t.subscribers
      end

let link_is_up t a b =
  match hop t a b with
  | None -> false
  | Some _ -> t.link_up.(key (Array.length t.pnodes) a b)

let set_node_state t i up =
  let node = t.pnodes.(i) in
  if Pnode.is_up node <> up then begin
    if up then Pnode.reboot node else Pnode.crash node;
    (* Incident links become unusable/usable, so the underlay reroutes
       around (or back through) the machine when masking failures. *)
    if t.mask_failures then recompute_routes t;
    let ev = if up then Node_up i else Node_down i in
    List.iter (fun f -> f ev) t.subscribers
  end

let node_is_up t i = Pnode.is_up t.pnodes.(i)

let subscribe t f = t.subscribers <- t.subscribers @ [ f ]
let next_hop t ~from ~dst =
  let h = next_hop_id t ~from ~dst in
  if h < 0 then None else Some h
let blackholed t = t.blackholed
