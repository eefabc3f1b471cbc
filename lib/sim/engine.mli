(** The discrete-event simulation engine.

    A single-threaded event loop over a hole-based binary min-heap
    ({!Vini_std.Eventq}) of timestamped callbacks.  This is the one
    scheduler in the repository: links, CPU schedulers, routing timers,
    TCP retransmissions, the fluid background model and the timeline
    sampler are all events on one engine, so an entire VINI deployment
    (physical substrate plus every slice) advances on one logical clock,
    as the paper's slices share one substrate.

    {b Complexity.}  {!at}/{!after} and {!step} are O(log pending);
    the queue's O(1) [min_key] feeds the {!at_inline} fast path, which
    runs already-due tail calls without touching the queue at all.
    {!pending} is O(1) via a live-event counter maintained on
    schedule/cancel/fire.  Cancelled events are deleted lazily and swept
    out in bulk once they outnumber live ones, so cancel-heavy workloads
    stay cheap too; deadlines that are pushed back on every packet use
    a {!Timer}, which re-arms without touching the queue.

    {b Determinism.}  Events fire in (timestamp, scheduling order):
    same-timestamp events drain strictly FIFO, so a seeded run is
    bit-identical across hosts, and with {!set_profiling} on or off. *)

type t

type handle
(** A scheduled event; may be cancelled before it fires. *)

val create : ?seed:int -> unit -> t
(** [seed] (default 42) initialises the root RNG from which subsystems
    {!Vini_std.Rng.split} their own streams. *)

val now : t -> Time.t
val rng : t -> Vini_std.Rng.t

val at : t -> Time.t -> (unit -> unit) -> handle
(** Schedule at an absolute time (>= now, else it fires immediately at the
    current time).  O(log pending). *)

val after : t -> Time.t -> (unit -> unit) -> handle
(** Schedule at [now + delta]; negative deltas clamp to now. *)

val at_inline : t -> Time.t -> (unit -> unit) -> unit
(** Breath coalescing: like {!at}, but when the requested time is provably
    {e next} in the event order — at or before the run limit and strictly
    earlier than every queued event — the callback executes immediately
    with the clock advanced, skipping the queue entirely.  Otherwise it
    degrades to {!at}.

    The inline execution is indistinguishable from the scheduled one:
    same callback order, same clocks, same RNG draw order, same
    {!events_fired} count.  Inlining is disabled under {!set_profiling}
    (so per-event histograms keep their meaning), which makes a profiled
    run the non-inlined schedule; a seeded run exports the same bytes
    either way (asserted by tests and the CI determinism gate).  What
    changes is cost: a burst of back-to-back packets flows through
    CPU-service and kernel hops as one queued event, the way a Snabb
    breath pushes a whole batch through an app graph.

    {b Tail position only.}  The caller must invoke this as the last
    action of the currently-executing event callback (or of setup code
    outside any run, where it always degrades to {!at}): statements after
    the call would otherwise be reordered {e after} the event.  There is
    no handle — an inline-eligible event cannot be cancelled. *)

val after_inline : t -> Time.t -> (unit -> unit) -> unit
(** [at_inline] at [now + delta]; negative deltas clamp to now. *)

val events_inlined : t -> int
(** How many fired events were coalesced inline (subset of
    {!events_fired}) — the breath model's effectiveness metric. *)

val cancel : handle -> unit
(** Idempotent; cancelling a fired event is a no-op.  O(1): the event is
    lazily deleted — it stays queued (and counted by {!max_pending}) until
    popped or swept by the periodic compaction. *)

val is_cancelled : handle -> bool

(** Re-armable deadlines.

    A timer is the cancel-and-reschedule idiom ([cancel h; h <- after d
    f]) without the churn: re-arming an armed timer to a later deadline
    pushes nothing and allocates nothing.  Every {!arm} reserves the
    (time, scheduling order) position {!at} would have given a fresh
    event, and the timer fires exactly there, so firing order, clocks,
    RNG draws and {!events_fired} are those of the idiom it replaces.

    The timer keeps at most one live queue entry.  When it is re-armed
    later, its entry stays where it is; on reaching the head of the
    queue the entry moves to the armed position (or is dropped if the
    timer was disarmed) without counting as an event.  Arming earlier
    than the queued entry pushes a new one and leaves the old entry
    dead.  Use {!cancel} for one-shot events; use a timer for a deadline
    that is pushed back again and again (retransmission, delayed-ACK,
    hold and dead timers). *)
module Timer : sig
  type engine := t
  type t

  val create : engine -> t
  (** A disarmed timer that fires nothing until {!on_fire} sets its
      callback. *)

  val on_fire : t -> (unit -> unit) -> unit
  (** The callback, run once per expiry; it may re-arm the timer. *)

  val arm : t -> Time.t -> unit
  (** (Re-)arm at an absolute time (clamped to now), replacing any armed
      deadline.  Allocation-free unless it must push ahead of the
      timer's queued entry. *)

  val arm_after : t -> Time.t -> unit
  (** [arm] at [now + delta]; negative deltas clamp to now. *)

  val disarm : t -> unit
  (** Idempotent; the armed deadline will not fire.  O(1). *)

  val is_armed : t -> bool
end

val every : t -> ?start:Time.t -> ?jitter:Time.t -> Time.t ->
  (unit -> bool) -> unit
(** [every t ~start ~jitter period f] runs [f] at [start] (default: one
    period from now) and re-schedules while [f] returns [true].  Each firing
    is offset by a uniform random amount in [\[0, jitter\]] (default none) to
    avoid phase-locked protocol timers. *)

val run : ?until:Time.t -> t -> unit
(** Drain events in timestamp order.  With [until], stops once the next
    event would be later than [until] and advances the clock to [until]. *)

val step : t -> bool
(** Fire exactly one event; [false] when the queue was empty. *)

val pending : t -> int
(** Number of scheduled (uncancelled, unfired) events, counting each
    armed {!Timer} once.  O(1): maintained as a counter, not recomputed
    from the queue. *)

val events_fired : t -> int
(** Total callbacks executed so far (engine throughput metric). *)

val events_cancelled : t -> int
(** Cancelled events removed from the queue so far, whether popped
    individually or swept in bulk by the lazy-delete compaction.  A
    timer entry dropped because its timer was disarmed or armed earlier
    counts here; one moved to a later deadline does not. *)

val max_pending : t -> int
(** High-water mark of the event queue, cancelled and timer entries
    included. *)

(** {2 Profiling}

    Off by default; when on, every [at] records the scheduling horizon and
    every callback its host CPU cost.  The only cost when off is one
    boolean test per event. *)

val set_profiling : t -> bool -> unit
val profiling : t -> bool

val horizon_hist : t -> Vini_std.Histogram.t
(** How far ahead of the clock events are scheduled (simulated seconds) —
    a deterministic picture of timer granularity across the deployment. *)

val callback_hist : t -> Vini_std.Histogram.t
(** Host CPU seconds per callback ([Sys.time] resolution; export-only,
    not deterministic across hosts). *)
