(** Capacity-aware slice embedding: solvers, admission control,
    re-embedding.

    Given a {!Substrate} (residual capacities + liveness) and a
    {!Request} (demands + pins), [solve] maps every virtual node onto a
    distinct live physical node and every virtual link onto a
    capacity-feasible physical path, or explains why it cannot with a
    structured {!rejection}.  Two solvers are provided:

    - {!Request.Greedy} — best-fit: virtual nodes in descending CPU
      demand land on the physical node with the largest residual CPU;
      virtual links take capacity-feasible IGP-shortest paths.
    - {!Request.Online} — deterministic online placement in the style of
      Even et al.: candidates are priced by exponential congestion costs
      ([alpha]{^ utilisation}), one shortest-path search per placed
      virtual neighbour pricing every candidate host at once; virtual
      nodes arrive in id order, and
      exact-cost ties are broken by a seeded, stable rule — byte-identical
      runs for equal seeds.

    [solve] is pure: it prices against a snapshot of the substrate and
    reserves nothing.  Admission control composes it with {!commit} /
    {!withdraw} (see {!admit}), so multiple slices share one substrate
    and infeasible requests bounce with a reason instead of
    oversubscribing anything. *)

type mapping = {
  nodes : int array;  (** virtual node id -> physical node id, injective *)
  vpaths : ((int * int) * int list) list;
      (** per virtual link (endpoints normalised [va < vb], sorted) the
          physical node path joining the endpoints' hosts; a single-node
          path means both endpoints share a host *)
}

type rejection =
  | Too_large of { vnodes : int; pnodes : int }
      (** more virtual nodes than live physical nodes *)
  | Pin_invalid of { vnode : int; pnode : int; reason : string }
      (** a pin names a bad target: out of range, down, doubly used, or
          short on CPU *)
  | Node_exhausted of { vnode : int; demand : float; best_residual : float }
      (** no live, unused physical node has [demand] reference cores
          free; [best_residual] is the best on offer *)
  | Link_exhausted of { va : int; vb : int; demand : float }
      (** virtual link [va]-[vb]: live physical paths exist but none has
          [demand] bits/s residual on every hop *)
  | Unreachable of { va : int; vb : int }
      (** virtual link [va]-[vb]: the hosts are in different live
          partitions of the substrate *)

val rejection_kind : rejection -> string
(** Stable machine-readable tag: ["too_large"], ["pin_invalid"],
    ["node_exhausted"], ["link_exhausted"], ["unreachable"]. *)

val rejection_to_string : rejection -> string

val solve :
  Substrate.t -> vtopo:Vini_topo.Graph.t -> Request.t ->
  (mapping, rejection) result
(** Pure: reads residuals, reserves nothing.  Deterministic for equal
    substrate state, topology, and request (including seed). *)

val commit :
  ?except:int list ->
  Substrate.t -> vtopo:Vini_topo.Graph.t -> Request.t -> mapping -> unit
(** Reserve the mapping's CPU and bandwidth on the substrate.  [except]
    lists virtual nodes whose share (CPU and incident-path bandwidth) is
    left out — used to re-commit only the survivors of a rejected
    re-embed, parking the dead vnode's share off the books. *)

val withdraw :
  ?except:int list ->
  Substrate.t -> vtopo:Vini_topo.Graph.t -> Request.t -> mapping -> unit
(** Release what {!commit} reserved, with the same [except] semantics. *)

val commit_delta :
  ?except:int list ->
  Substrate.t -> vtopo:Vini_topo.Graph.t -> Request.t -> mapping ->
  vnode:int -> unit
(** Reserve exactly one virtual node's share of a mapping: its CPU plus
    the bandwidth of its incident virtual links' paths.  With [except],
    a path whose {e other} endpoint is listed is skipped — when several
    vnodes' shares are simultaneously off the books, the path between two
    of them belongs to exactly one delta.  Paired with {!withdraw_delta}
    this is the double-provisioning primitive of a make-before-break
    migration: [commit_delta] on the {e new} mapping while the old share
    is still held, then after the flip [withdraw_delta] on the old one
    (or, on rollback, [withdraw_delta] on the new one). *)

val withdraw_delta :
  ?except:int list ->
  Substrate.t -> vtopo:Vini_topo.Graph.t -> Request.t -> mapping ->
  vnode:int -> unit
(** Release one virtual node's share; inverse of {!commit_delta}. *)

val admit :
  Substrate.t -> vtopo:Vini_topo.Graph.t -> Request.t ->
  (mapping, rejection) result
(** [solve] + [commit] + admission counters: [Ok] mappings are reserved
    and counted admitted; rejections are counted rejected. *)

val reembed :
  Substrate.t -> vtopo:Vini_topo.Graph.t -> Request.t -> mapping ->
  vnode:int -> (mapping, rejection) result
(** Re-place one displaced virtual node: solves with every other virtual
    node pinned to its current host, so survivors never move.  Pure like
    [solve] — the caller withdraws the old mapping first and commits the
    result (or re-commits the old mapping on rejection). *)

val plan_move :
  Substrate.t -> vtopo:Vini_topo.Graph.t -> Request.t -> mapping ->
  vnode:int -> ?target:int -> unit -> (mapping, rejection) result
(** Plan a make-before-break move of [vnode]: every survivor keeps its
    host {e and} its exact committed paths; only [vnode]'s host and the
    paths of its incident virtual links change.  Candidate hosts are
    priced with {!Request.Online}'s exponential congestion model (node
    increment + congestion-priced constrained paths to each neighbour's
    host), against a snapshot that credits the mover's current share back
    — the plan describes the steady state after the old share is
    withdrawn.  [target] forces a specific host (validated like a pin);
    otherwise the cheapest candidate wins, exact-cost ties broken by the
    request seed.  A neighbour whose host is down is reachable from no
    candidate, so such a plan is rejected: with the first failure in
    candidate order, [Unreachable] for the dead vlink unless a
    capacity-blocked vlink ranks first ([Link_exhausted]).  The current host is itself a candidate, so a plan that
    returns the same host means "no profitable move".  Pure: reserves
    nothing; drive the actual move with {!commit_delta} /
    {!withdraw_delta}. *)

val check :
  Substrate.t -> vtopo:Vini_topo.Graph.t -> Request.t -> mapping ->
  (unit, string) result
(** Validate a mapping against the {e current} substrate: injectivity,
    ranges, liveness, path adjacency and endpoints, and that the
    aggregate demand fits the current residuals (i.e. the mapping could
    be committed now).  First violation wins. *)

val path_stretch : Substrate.t -> int list -> float
(** IGP weight of a physical path over the unconstrained shortest path
    between its ends; 1.0 for trivial paths. *)

val stretch : Substrate.t -> mapping -> float
(** Mean {!path_stretch} over the mapping's multi-hop paths; 1.0 when
    there are none. *)
