(** Simulation time as native-int nanoseconds.

    Integer time keeps event ordering exact: two events scheduled from the
    same float expression can never be reordered by rounding, which matters
    for reproducibility of convergence experiments.

    The representation is a native [int], not an [int64]: a 63-bit int
    holds 146 years of nanoseconds, and an immediate int keeps every
    timestamp unboxed — [add]/[sub]/[compare] on the hot path allocate
    nothing, where int64 arithmetic boxes its result.  Rounding semantics
    of {!of_sec_f}/{!of_ms_f} are unchanged from the int64 version
    (round-to-nearest on the float, then truncate to integer), so seeded
    schedules are numerically identical. *)

type t = int

val zero : t
val ns : int -> t
val us : int -> t
val ms : int -> t
val sec : int -> t

val of_sec_f : float -> t
(** Round a float duration in seconds to whole nanoseconds. *)

val to_sec_f : t -> float
val to_ms_f : t -> float
val of_ms_f : float -> t

(** The arithmetic and comparisons are primitives at type [int], so
    every use compiles to inline integer code in any build profile — no
    call, no polymorphic compare — even where modules are compiled
    without cross-module inlining (dune's [dev] profile passes
    [-opaque]). *)

external add : t -> t -> t = "%addint"
external sub : t -> t -> t = "%subint"
external mul : t -> int -> t = "%mulint"

val max_value : t
(** The largest representable instant ([max_int] ns, ~146 years).  Used as
    an "unreachable" sentinel by window computations. *)

external compare : t -> t -> int = "%compare"
external ( <= ) : t -> t -> bool = "%lessequal"
external ( < ) : t -> t -> bool = "%lessthan"
external ( >= ) : t -> t -> bool = "%greaterequal"
external ( > ) : t -> t -> bool = "%greaterthan"

val min : t -> t -> t
val max : t -> t -> t
(** Integer min/max (not the polymorphic [Stdlib] ones). *)

val pp : Format.formatter -> t -> unit
(** Prints seconds with microsecond precision, e.g. ["12.345678s"]. *)
