(** Seeded substrate generation (Internet-scale scenarios, DESIGN.md §17).

    Three generator families produce {!Vini_topo.Graph.t} substrates far
    larger than the built-in datasets, deterministically: the same
    [(kind, seed)] pair yields a byte-identical graph (and byte-identical
    [vini.topo/1] JSON) on every host, OCaml version, and domain count.

    - {b Waxman}: the classic random geometric model — nodes uniform on a
      continental square, edge probability decaying exponentially with
      distance.  A seeded random spanning tree is laid first, so the
      graph is connected by construction.
    - {b Fat-tree}: the k-ary datacenter fabric (core, aggregation, edge
      tiers); fully structural, the seed only stamps the label.
    - {b Backbone}: a synthetic continental backbone of metro PoP
      clusters — k-nearest-neighbour links inside the geography plus a
      post-generation augmentation pass that stitches any disconnected
      components, so 200+ PoP substrates are always connected.

    Link delays derive from great-circle-style plane distance at fiber
    speed, and IGP weights from delay, matching the dataset conventions,
    so OSPF on a generated substrate behaves like OSPF on Abilene. *)

type kind =
  | Waxman of { n : int; alpha : float; beta : float; bandwidth_bps : float }
  | Fat_tree of { k : int; bandwidth_bps : float }
  | Backbone of { pops : int; degree : int; bandwidth_bps : float }

type spec = { kind : kind; seed : int }

val waxman :
  ?alpha:float -> ?beta:float -> ?bandwidth_bps:float -> int -> kind
(** [waxman n] with the usual Waxman parameters (defaults
    [alpha = 0.4], [beta = 0.6], 1 Gb/s links). *)

val fat_tree : ?bandwidth_bps:float -> int -> kind
(** [fat_tree k] for even [k >= 2]: [(k/2)^2] core switches, [k] pods of
    [k/2] aggregation and [k/2] edge switches (defaults 10 Gb/s links). *)

val backbone : ?degree:int -> ?bandwidth_bps:float -> int -> kind
(** [backbone pops] synthetic continental backbone (defaults
    [degree = 3] nearest-neighbour links per PoP, 10 Gb/s). *)

val label : spec -> string
(** Deterministic name stamped on the generated graph, e.g.
    ["backbone-200-s42"]; {!Vini_topo.Graph.Unknown_node} errors on a
    generated substrate name it. *)

val generate : spec -> Vini_topo.Graph.t
(** Byte-identical per [spec]; always connected.
    @raise Invalid_argument on nonsensical parameters (n < 1, odd
    fat-tree arity, out-of-range probabilities). *)

(** {2 Pure model pieces, exposed for property tests} *)

val delay_of_km : float -> Vini_sim.Time.t
(** Fiber propagation for a plane distance in km (5 us/km, 100 us
    floor) — strictly monotone above the floor. *)

val weight_of_delay : Vini_sim.Time.t -> int
(** IGP weight from one-way delay (100 per ms, minimum 1) — monotone. *)

(** {2 The [vini.topo/1] interchange format} *)

val schema_version : string
(** ["vini.topo/1"]. *)

val to_json : spec -> Vini_topo.Graph.t -> Vini_std.Json.t
(** The substrate as a [vini.topo/1] document: schema tag, generator
    provenance (kind, parameters, seed), node names, and per-link
    bandwidth / delay (ns) / loss / weight.  Deterministic: field and
    array order are fixed, so equal specs give byte-identical text. *)

val document : spec -> string
(** [to_json] of [generate], printed. *)

val of_json : Vini_std.Json.t -> (Vini_topo.Graph.t, string) result
(** Load a substrate from a [vini.topo/1] document; the graph's label
    comes from the document.  Rejects wrong or missing schema tags. *)

val load_file : string -> (Vini_topo.Graph.t, string) result
(** Read and [of_json] a file.  I/O, JSON and schema errors become
    [Error "<path>: <reason>"]. *)

val parse_kind :
  string ->
  n:int ->
  ?alpha:float ->
  ?beta:float ->
  ?degree:int ->
  ?bandwidth_bps:float ->
  unit ->
  (kind, string) result
(** CLI/spec-language surface: ["waxman" | "fat-tree" | "backbone"] plus
    the size argument and optional knobs. *)
