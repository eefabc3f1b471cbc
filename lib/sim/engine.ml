(* Clock clamps use [Int.max] ([Time.t] is [int]): it inlines in every
   build profile, where a call into another module of this library does
   not when dune compiles with [-opaque]. *)

type state = Pending | Fired | Cancelled | Timer_entry of timer

and handle = {
  time : Time.t;
  callback : unit -> unit;
  mutable state : state;
  engine_live : int ref; (* the owning engine's [live] counter *)
}

(* A re-armable deadline ({!Timer}).  While armed it holds the (time, seq)
   pair [at] would have given a fresh event, so it fires exactly where
   cancel-and-reschedule would have.  Its queue entry may sit earlier
   than that pair: re-arming later only records the new pair, and the
   entry is pushed again at it when it pops. *)
and timer = {
  engine : t;
  mutable fire : unit -> unit;
  mutable armed : bool;
  mutable deadline : Time.t;
  mutable seq : int;
  (* [entry] is in the queue at (entry_key, entry_seq) iff [queued]; it
     is reused from one push to the next.  Arming earlier than a queued
     entry leaves that entry behind, dead, under a fresh one. *)
  mutable entry : handle;
  mutable queued : bool;
  mutable entry_key : Time.t;
  mutable entry_seq : int;
}

and t = {
  mutable clock : Time.t;
  queue : handle Vini_std.Eventq.t;
  live : int ref; (* scheduled events and armed timers not yet fired *)
  root_rng : Vini_std.Rng.t;
  mutable cancelled_count : int;
  mutable fired : int;
  mutable inlined : int;
  (* Breath coalescing ({!at_inline}): inclusive bound up to which a
     tail-scheduled event may execute immediately instead of through the
     queue.  Maintained by [run] (the run's [until] limit); -1 outside a
     run loop, which disables inlining since times are >= 0. *)
  mutable inline_until : Time.t;
  (* Inline chains nest on the OCaml stack (each coalesced event is a
     nested call); cap the depth so a long back-to-back burst falls back
     to the queue once per [max_inline_depth] events instead of
     overflowing the stack. *)
  mutable inline_depth : int;
  mutable max_pending : int;
  (* Profiling (off by default, so the hot path pays one bool test):
     [horizon_hist] sees how far ahead of the clock each event is scheduled
     (simulated seconds, deterministic); [callback_hist] sees host CPU time
     per callback via [Sys.time] (resolution-limited, export-only). *)
  mutable profiling : bool;
  horizon_hist : Vini_std.Histogram.t;
  callback_hist : Vini_std.Histogram.t;
}

(* Fills vacated queue slots (see {!Vini_std.Eventq.create}); never fires. *)
let dummy_handle =
  { time = Time.zero; callback = ignore; state = Cancelled; engine_live = ref 0 }

let create ?(seed = 42) () =
  let t =
    {
      clock = Time.zero;
      queue = Vini_std.Eventq.create ~dummy:dummy_handle ();
      live = ref 0;
      root_rng = Vini_std.Rng.create seed;
      cancelled_count = 0;
      fired = 0;
      inlined = 0;
      inline_until = -1;
      inline_depth = 0;
      max_pending = 0;
      profiling = false;
      horizon_hist = Vini_std.Histogram.create ();
      callback_hist = Vini_std.Histogram.create ();
    }
  in
  Trace.set_clock (fun () -> t.clock);
  t

let now t = t.clock
let rng t = t.root_rng

(* Cancelled handles stay queued (lazy delete) until popped; when they
   outnumber the live events, sweep them out so a cancel-heavy workload
   (one-shot timeouts, failure detectors) cannot bloat the queue.  A
   timer's entry is dead once it is superseded or its timer disarmed. *)
let compact_threshold = 64

let dead h =
  match h.state with
  | Cancelled -> true
  | Pending | Fired -> false
  | Timer_entry tm ->
      if h == tm.entry && tm.armed then false
      else begin
        if h == tm.entry then tm.queued <- false;
        true
      end

let maybe_compact t =
  let len = Vini_std.Eventq.length t.queue in
  if len > compact_threshold && len - !(t.live) > !(t.live) then
    t.cancelled_count <-
      t.cancelled_count + Vini_std.Eventq.compact t.queue ~dead

let note_horizon t time =
  if t.profiling then
    Vini_std.Histogram.add t.horizon_hist (Time.to_sec_f (Time.sub time t.clock))

(* After every push: depth high-water mark and the dead-entry sweep. *)
let note_push t =
  let depth = Vini_std.Eventq.length t.queue in
  if depth > t.max_pending then t.max_pending <- depth;
  maybe_compact t

let at t time callback =
  let time = Int.max time t.clock in
  let h = { time; callback; state = Pending; engine_live = t.live } in
  Vini_std.Eventq.push t.queue ~key:time h;
  incr t.live;
  note_horizon t time;
  note_push t;
  h

let after t delta callback = at t (Time.add t.clock (Int.max delta Time.zero)) callback

(* Breath coalescing.  An event scheduled at [time] from the tail of the
   currently-executing callback fires *next* — immediately after this
   callback returns, before anything else — exactly when (a) the run loop
   will keep going, [time <= inline_until], and (b) [time] is strictly
   below every queued key (an equal key has an older seq and drains
   first).  When both hold, running the callback here, with the clock
   advanced to [time], is indistinguishable from the queued route: same
   order, same clocks, same RNG draws, same [events_fired].  This is what
   lets a burst of back-to-back packets traverse CPU service and kernel
   hops as one queued event (a Snabb-style "breath") while staying
   byte-identical to the one-event-per-packet schedule.

   Only legal in tail position: any work the caller does after [at_inline]
   would be reordered before the event.  Inlining is skipped under
   profiling so the per-event histograms keep their meaning. *)
let max_inline_depth = 192

let rec at_inline t time callback =
  let time = Int.max time t.clock in
  if
    (not t.profiling)
    && t.inline_depth < max_inline_depth
    && Time.( <= ) time t.inline_until
    && time < Vini_std.Eventq.min_key t.queue
  then begin
    t.clock <- time;
    t.fired <- t.fired + 1;
    t.inlined <- t.inlined + 1;
    t.inline_depth <- t.inline_depth + 1;
    callback ();
    t.inline_depth <- t.inline_depth - 1
  end
  else ignore (at t time callback)

and after_inline t delta callback =
  at_inline t (Time.add t.clock (Int.max delta Time.zero)) callback

let events_inlined t = t.inlined

let cancel h =
  match h.state with
  | Pending ->
      h.state <- Cancelled;
      decr h.engine_live
  | Fired | Cancelled | Timer_entry _ -> ()

let is_cancelled h =
  match h.state with Cancelled -> true | Pending | Fired | Timer_entry _ -> false

let rec every t ?start ?jitter period f =
  let base = match start with Some s -> s | None -> Time.add t.clock period in
  let fire_at =
    match jitter with
    | None -> base
    | Some j when Time.compare j Time.zero > 0 ->
        Time.add base (Time.of_sec_f (Vini_std.Rng.float t.root_rng (Time.to_sec_f j)))
    | Some _ -> base
  in
  ignore
    (at t fire_at (fun () ->
         if f () then
           every t ~start:(Time.add fire_at period) ?jitter period f))

let run_callback t f =
  if t.profiling then begin
    let t0 = Sys.time () in
    f ();
    Vini_std.Histogram.add t.callback_hist (Sys.time () -. t0)
  end
  else f ()

(* A timer's entry popped.  Only the current entry of an armed timer is
   live; if the timer was re-armed later since the push, the entry moves
   to the armed (deadline, seq) — the slot the rescheduled event would
   hold — and fires from there.  Neither a move nor a drop is an event. *)
let pop_timer t tm h =
  if h != tm.entry || not tm.armed then begin
    if h == tm.entry then tm.queued <- false;
    t.cancelled_count <- t.cancelled_count + 1
  end
  else if tm.entry_seq <> tm.seq then begin
    Vini_std.Eventq.push_seq t.queue ~key:tm.deadline ~seq:tm.seq h;
    tm.entry_key <- tm.deadline;
    tm.entry_seq <- tm.seq
  end
  else begin
    tm.armed <- false;
    tm.queued <- false;
    decr t.live;
    t.clock <- Int.max t.clock tm.deadline;
    t.fired <- t.fired + 1;
    run_callback t tm.fire
  end

let step t =
  match Vini_std.Eventq.pop t.queue with
  | None -> false
  | Some h -> (
      match h.state with
      | Cancelled ->
          t.cancelled_count <- t.cancelled_count + 1;
          true
      | Fired -> assert false
      | Timer_entry tm ->
          pop_timer t tm h;
          true
      | Pending ->
          h.state <- Fired;
          decr t.live;
          t.clock <- Int.max t.clock h.time;
          t.fired <- t.fired + 1;
          run_callback t h.callback;
          true)

let run ?until t =
  t.inline_depth <- 0;
  t.inline_until <-
    (match until with Some l -> l | None -> Time.max_value);
  (* [min_key] rather than [peek]: same cursor search, no option
     allocation per event.  An empty queue reports [max_int], which no
     real key reaches (keys clamp at [max_int/2]). *)
  let continue () =
    let k = Vini_std.Eventq.min_key t.queue in
    k <> max_int
    && match until with None -> true | Some limit -> k <= limit
  in
  while continue () do
    ignore (step t)
  done;
  t.inline_until <- -1;
  match until with
  | Some limit when Time.compare limit t.clock > 0 -> t.clock <- limit
  | Some _ | None -> ()

let pending t = !(t.live)
let events_fired t = t.fired
let events_cancelled t = t.cancelled_count
let max_pending t = t.max_pending

let set_profiling t on = t.profiling <- on
let profiling t = t.profiling
let horizon_hist t = t.horizon_hist
let callback_hist t = t.callback_hist

module Timer = struct
  type engine = t
  type t = timer

  let new_entry tm =
    { time = Time.zero; callback = ignore; state = Timer_entry tm;
      engine_live = tm.engine.live }

  let create (engine : engine) =
    let tm =
      { engine; fire = ignore; armed = false; deadline = Time.zero; seq = 0;
        entry = dummy_handle; queued = false; entry_key = Time.zero;
        entry_seq = 0 }
    in
    tm.entry <- new_entry tm;
    tm

  let on_fire tm f = tm.fire <- f

  let arm tm time =
    let t = tm.engine in
    let time = Int.max time t.clock in
    let seq = Vini_std.Eventq.reserve_seq t.queue in
    if not tm.armed then begin
      tm.armed <- true;
      incr t.live
    end;
    tm.deadline <- time;
    tm.seq <- seq;
    note_horizon t time;
    (* A queued entry at or before [time] pops first and moves here then:
       nothing to push.  One queued later is left behind, dead. *)
    if not (tm.queued && tm.entry_key <= time) then begin
      if tm.queued then tm.entry <- new_entry tm;
      Vini_std.Eventq.push_seq t.queue ~key:time ~seq tm.entry;
      tm.queued <- true;
      tm.entry_key <- time;
      tm.entry_seq <- seq;
      note_push t
    end

  let arm_after tm delta =
    arm tm (Time.add tm.engine.clock (Int.max delta Time.zero))

  let disarm tm =
    if tm.armed then begin
      tm.armed <- false;
      decr tm.engine.live
    end

  let is_armed tm = tm.armed
end
