(** The physical internet underneath VINI.

    Instantiates a {!Vini_topo.Graph.t} as physical nodes and links, routes
    packets between public addresses with static shortest paths (the
    underlying IP network), and models the two behaviours §3.1 contrasts:

    - {b masking}: when a physical link fails the underlay recomputes
      routes, hiding the failure from overlays (the default, and what the
      real Internet does under PL-VINI);
    - {b exposure}: with [mask_failures:false] routes are left alone and
      traffic into the dead link blackholes.

    Either way, topology changes are announced to subscribers — the
    "upcalls of layer-3 alarms to virtual nodes" of Table 1. *)

type t

type event =
  | Link_down of Vini_topo.Graph.node_id * Vini_topo.Graph.node_id
  | Link_up of Vini_topo.Graph.node_id * Vini_topo.Graph.node_id
  | Node_down of Vini_topo.Graph.node_id
  | Node_up of Vini_topo.Graph.node_id

type node_profile = { speed_ghz : float; contention : Cpu.contention }

val dedicated_profile : speed_ghz:float -> node_profile
val planetlab_profile : speed_ghz:float -> node_profile
(** Shared node with the calibrated contention model. *)

val create :
  engine:Vini_sim.Engine.t ->
  rng:Vini_std.Rng.t ->
  graph:Vini_topo.Graph.t ->
  ?profile:(Vini_topo.Graph.node_id -> node_profile) ->
  ?addr_of:(Vini_topo.Graph.node_id -> Vini_net.Addr.t) ->
  ?mask_failures:bool ->
  unit ->
  t
(** Default profile: dedicated 2.8 GHz nodes.  Default addressing: node
    [i] gets 198.32.154.(10+i) (the paper's example block), falling back
    to sequential allocation past .255. *)

val engine : t -> Vini_sim.Engine.t
val graph : t -> Vini_topo.Graph.t
val node : t -> Vini_topo.Graph.node_id -> Pnode.t
val node_by_name : t -> string -> Pnode.t
val node_of_addr : t -> Vini_net.Addr.t -> Pnode.t option
val addr : t -> Vini_topo.Graph.node_id -> Vini_net.Addr.t
val nodes : t -> Pnode.t list

val plink : t -> Vini_topo.Graph.node_id -> Vini_topo.Graph.node_id -> Plink.t
(** @raise Not_found if the nodes are not adjacent. *)

val set_link_state :
  t -> Vini_topo.Graph.node_id -> Vini_topo.Graph.node_id -> bool -> unit
(** Fail or restore a physical link; triggers rerouting (when masking) and
    upcalls. *)

val link_is_up : t -> Vini_topo.Graph.node_id -> Vini_topo.Graph.node_id -> bool

val set_node_state : t -> Vini_topo.Graph.node_id -> bool -> unit
(** Crash ([false]) or reboot ([true]) a physical machine: {!Pnode.crash} /
    {!Pnode.reboot}, rerouting around it (when masking) and an upcall.
    Crashing kills every process attached to the node; rebooting does not
    restart them — that is the {!Supervisor}'s job. *)

val node_is_up : t -> Vini_topo.Graph.node_id -> bool

val subscribe : t -> (event -> unit) -> unit
(** Register for topology-change upcalls. *)

val next_hop :
  t -> from:Vini_topo.Graph.node_id -> dst:Vini_topo.Graph.node_id ->
  Vini_topo.Graph.node_id option
(** Current underlay routing decision (for tests and inspection). *)

val next_hop_id :
  t -> from:Vini_topo.Graph.node_id -> dst:Vini_topo.Graph.node_id -> int
(** {!next_hop} as a plain table read: the node id, or -1 where
    {!next_hop} is [None].  Allocates nothing; the fluid model walks
    every background flow's path with it. *)

val blackholed : t -> int
(** Packets dropped for lack of a usable route. *)
