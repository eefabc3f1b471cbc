(* Tests for the discrete-event engine and time arithmetic. *)

module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Trace = Vini_sim.Trace

let check = Alcotest.check
let time = Alcotest.testable Time.pp (fun a b -> Time.compare a b = 0)

let test_time_units () =
  check time "1 s = 1000 ms" (Time.sec 1) (Time.ms 1000);
  check time "1 ms = 1000 us" (Time.ms 1) (Time.us 1000);
  check time "1 us = 1000 ns" (Time.us 1) (Time.ns 1000);
  check time "float roundtrip" (Time.ms 1500) (Time.of_sec_f 1.5);
  check (Alcotest.float 1e-12) "to_sec" 0.25 (Time.to_sec_f (Time.ms 250))

let test_time_arith () =
  check time "add" (Time.sec 3) (Time.add (Time.sec 1) (Time.sec 2));
  check time "sub" (Time.sec 1) (Time.sub (Time.sec 3) (Time.sec 2));
  check time "mul" (Time.sec 6) (Time.mul (Time.sec 2) 3);
  check time "min" (Time.sec 1) (Time.min (Time.sec 1) (Time.sec 2));
  check time "max" (Time.sec 2) (Time.max (Time.sec 1) (Time.sec 2))

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.at e (Time.ms 30) (note "c"));
  ignore (Engine.at e (Time.ms 10) (note "a"));
  ignore (Engine.at e (Time.ms 20) (note "b"));
  Engine.run e;
  check Alcotest.(list string) "timestamp order" [ "a"; "b"; "c" ]
    (List.rev !log)

let test_engine_same_time_fifo () =
  (* Events at the same instant fire in scheduling order. *)
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Engine.at e (Time.ms 5) (fun () -> log := i :: !log))
  done;
  Engine.run e;
  check Alcotest.(list int) "fifo at equal time" (List.init 10 Fun.id)
    (List.rev !log)

let test_engine_clock_advances () =
  let e = Engine.create () in
  let seen = ref Time.zero in
  ignore (Engine.at e (Time.ms 42) (fun () -> seen := Engine.now e));
  Engine.run e;
  check time "clock at callback" (Time.ms 42) !seen;
  check time "clock after run" (Time.ms 42) (Engine.now e)

let test_engine_until_advances_clock () =
  let e = Engine.create () in
  ignore (Engine.at e (Time.sec 100) (fun () -> ()));
  Engine.run ~until:(Time.sec 10) e;
  check time "stopped at until" (Time.sec 10) (Engine.now e);
  check Alcotest.int "event still pending" 1 (Engine.pending e)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.at e (Time.ms 5) (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  check Alcotest.bool "cancelled did not fire" false !fired;
  check Alcotest.bool "is_cancelled" true (Engine.is_cancelled h)

let test_engine_after_relative () =
  let e = Engine.create () in
  let at = ref Time.zero in
  ignore
    (Engine.at e (Time.ms 10) (fun () ->
         ignore (Engine.after e (Time.ms 7) (fun () -> at := Engine.now e))));
  Engine.run e;
  check time "after is relative" (Time.ms 17) !at

let test_engine_past_schedules_now () =
  let e = Engine.create () in
  let order = ref [] in
  ignore
    (Engine.at e (Time.ms 10) (fun () ->
         (* Scheduling into the past clamps to now. *)
         ignore (Engine.at e (Time.ms 1) (fun () -> order := "late" :: !order));
         order := "first" :: !order));
  Engine.run e;
  check Alcotest.(list string) "clamped" [ "first"; "late" ] (List.rev !order);
  check time "clock never went back" (Time.ms 10) (Engine.now e)

let test_engine_every_stops () =
  let e = Engine.create () in
  let n = ref 0 in
  Engine.every e (Time.ms 10) (fun () ->
      incr n;
      !n < 5);
  Engine.run e;
  check Alcotest.int "ran 5 times then stopped" 5 !n

let test_engine_every_jitter_bounded () =
  let e = Engine.create () in
  let stamps = ref [] in
  Engine.every e ~jitter:(Time.ms 5) (Time.ms 100) (fun () ->
      stamps := Engine.now e :: !stamps;
      List.length !stamps < 20);
  Engine.run e;
  let stamps = List.rev !stamps in
  List.iteri
    (fun i t ->
      let base = Time.ms (100 * (i + 1)) in
      let delta = Time.to_ms_f (Time.sub t base) in
      check Alcotest.bool
        (Printf.sprintf "firing %d within jitter (%.2f)" i delta)
        true
        (delta >= -0.001 && delta <= 5.001 *. float_of_int (i + 1)))
    stamps

let test_engine_step () =
  let e = Engine.create () in
  ignore (Engine.at e (Time.ms 1) (fun () -> ()));
  check Alcotest.bool "one step" true (Engine.step e);
  check Alcotest.bool "exhausted" false (Engine.step e)

let test_engine_deterministic_replay () =
  let run () =
    let e = Engine.create ~seed:5 () in
    let acc = ref [] in
    let rng = Engine.rng e in
    for _ = 1 to 50 do
      let d = Vini_std.Rng.int rng 1000 in
      ignore (Engine.after e (Time.us d) (fun () -> acc := d :: !acc))
    done;
    Engine.run e;
    !acc
  in
  check Alcotest.(list int) "identical runs" (run ()) (run ())

let test_engine_cancel_from_callback () =
  (* A handle scheduled by one callback and cancelled by a later one. *)
  let e = Engine.create () in
  let fired = ref false in
  let h = ref None in
  ignore
    (Engine.at e (Time.ms 1) (fun () ->
         h := Some (Engine.at e (Time.ms 30) (fun () -> fired := true))));
  ignore (Engine.at e (Time.ms 10) (fun () -> Engine.cancel (Option.get !h)));
  Engine.run e;
  check Alcotest.bool "cancelled before it was due" false !fired;
  check Alcotest.int "drained" 0 (Engine.pending e);
  check Alcotest.int "cancelled entry popped" 1 (Engine.events_cancelled e)

(* Breath coalescing must be invisible: a random workload whose callbacks
   tail-schedule through [after_inline] (zero delays and ties included),
   schedule and cancel ordinary events, and draw from the engine RNG,
   fires the same events at the same clocks whether inlining is on or
   forced off by profiling — across a [run ~until] boundary too. *)
let prop_inline_matches_queued =
  let open QCheck in
  Test.make ~name:"inline run = queued run" ~count:60
    (pair (int_range 0 10_000) (int_range 1 40))
    (fun (seed, initial) ->
      let run ~profiling =
        let e = Engine.create ~seed () in
        Engine.set_profiling e profiling;
        let rng = Engine.rng e in
        let log = ref [] in
        let budget = ref 600 in
        let handles = ref [] in
        let next = ref 0 in
        let rec ev id () =
          log := (id, Engine.now e) :: !log;
          let fresh () = incr next; !next in
          let delay () = Time.us (Vini_std.Rng.int rng 4 * Vini_std.Rng.int rng 30) in
          decr budget;
          if !budget > 0 then begin
            (match Vini_std.Rng.int rng 4 with
            | 0 -> handles := Engine.after e (delay ()) (ev (fresh ())) :: !handles
            | 1 -> (
                match !handles with
                | h :: rest ->
                    Engine.cancel h;
                    handles := rest
                | [] -> ())
            | _ -> ());
            if Vini_std.Rng.int rng 3 > 0 then
              Engine.after_inline e (delay ()) (ev (fresh ()))
          end
        in
        for _ = 1 to initial do
          ignore (Engine.at e (Time.us (Vini_std.Rng.int rng 200)) (ev (-1)))
        done;
        Engine.run ~until:(Time.us 300) e;
        let mid = Engine.now e in
        Engine.run e;
        (List.rev !log, mid, Engine.events_fired e, Engine.events_inlined e)
      in
      let log_q, mid_q, fired_q, inlined_q = run ~profiling:true in
      let log_i, mid_i, fired_i, _ = run ~profiling:false in
      inlined_q = 0 && log_q = log_i && mid_q = mid_i && fired_q = fired_i)

(* Engine.Timer against the cancel-and-reschedule idiom it replaces.
   Random scripts over a few timers arm them later than, earlier than or
   at their last deadline, disarm them, re-arm them from their own
   callbacks, and mix in bursts of plain [after]/[cancel] events (enough
   to trigger the dead-entry sweep) and [after_inline] chains.  The timer run and the [at]+[cancel] reference must fire the
   same (time, id) trace, across a [run ~until] boundary, with the same
   [events_fired], [pending] and horizon histogram — with profiling off
   (inlining live) and on. *)
let prop_timer_matches_cancel_at =
  let open QCheck in
  Test.make ~name:"timer = at+cancel reference" ~count:120
    (triple (int_range 0 100_000) (int_range 1 4) bool)
    (fun (seed, ntimers, profiling) ->
      let run ~reference =
        let e = Engine.create ~seed () in
        Engine.set_profiling e profiling;
        let rng = Vini_std.Rng.create seed in
        let draw n = Vini_std.Rng.int rng n in
        let log = ref [] and budget = ref 400 and next = ref 0 in
        let plain = ref [] in
        let on_fire = ref (fun (_ : int) -> ()) in
        let arm, disarm =
          if reference then begin
            let hs = Array.make ntimers None in
            let cancel i =
              Option.iter Engine.cancel hs.(i);
              hs.(i) <- None
            in
            ( (fun i time ->
                cancel i;
                hs.(i) <-
                  Some
                    (Engine.at e time (fun () ->
                         hs.(i) <- None;
                         !on_fire i))),
              cancel )
          end
          else begin
            let ts =
              Array.init ntimers (fun i ->
                  let tm = Engine.Timer.create e in
                  Engine.Timer.on_fire tm (fun () -> !on_fire i);
                  tm)
            in
            (fun i time -> Engine.Timer.arm ts.(i) time),
            fun i -> Engine.Timer.disarm ts.(i)
          end
        in
        let last = Array.make ntimers Time.zero in
        let delay () = Time.us (draw 50) in
        let arm_some i =
          let time =
            match draw 4 with
            | 0 -> last.(i)
            | 1 -> Time.add last.(i) (delay ())
            | 2 -> Time.sub last.(i) (delay ())
            | _ -> Time.add (Engine.now e) (delay ())
          in
          last.(i) <- Time.max time (Engine.now e);
          arm i time
        in
        let rec act id () =
          log := (Engine.now e, id) :: !log;
          decr budget;
          if !budget > 0 then begin
            for _ = 0 to draw 3 do
              match draw 5 with
              | 0 | 1 -> arm_some (draw ntimers)
              | 2 -> disarm (draw ntimers)
              | 3 ->
                  (* Bursts of plain events, cancelled wholesale below,
                     push the queue past the compaction threshold. *)
                  for _ = 0 to draw 30 do
                    incr next;
                    plain := Engine.after e (delay ()) (act !next) :: !plain
                  done
              | _ ->
                  List.iter Engine.cancel !plain;
                  plain := []
            done;
            if draw 3 = 0 then begin
              incr next;
              Engine.after_inline e (delay ()) (act !next)
            end
          end
        in
        on_fire :=
          (fun i ->
            if !budget > 0 && draw 2 = 0 then arm_some i;
            act (-1 - i) ());
        for i = 0 to ntimers - 1 do
          arm_some i
        done;
        for k = 1 to 3 do
          ignore (Engine.at e (Time.us (draw 100)) (act k))
        done;
        next := 3;
        Engine.run ~until:(Time.us 150) e;
        let mid = (Engine.now e, Engine.pending e, Engine.events_fired e) in
        Engine.run e;
        let h = Engine.horizon_hist e in
        ( List.rev !log,
          mid,
          (Engine.events_fired e, Engine.pending e),
          (Vini_std.Histogram.count h, Vini_std.Histogram.sum h,
           Vini_std.Histogram.buckets h) )
      in
      run ~reference:true = run ~reference:false)

(* Re-arming an armed timer to a later deadline only records the new
   deadline: no queue push, no allocation. *)
let test_timer_rearm_allocates_nothing () =
  let e = Engine.create () in
  let fired = ref [] in
  let tm = Engine.Timer.create e in
  Engine.Timer.on_fire tm (fun () -> fired := Engine.now e :: !fired);
  Engine.Timer.arm tm (Time.ms 1);
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Engine.Timer.arm tm (Time.add (Time.ms 1) (Time.ns i))
  done;
  let w1 = Gc.minor_words () in
  check Alcotest.int "zero minor words across re-arms" 0
    (int_of_float (w1 -. w0));
  check Alcotest.int "one pending" 1 (Engine.pending e);
  Engine.run e;
  check Alcotest.(list time) "fires once, at the last deadline"
    [ Time.add (Time.ms 1) (Time.ns 10_000) ] !fired;
  check Alcotest.int "one event fired" 1 (Engine.events_fired e);
  check Alcotest.int "no cancellations" 0 (Engine.events_cancelled e);
  check Alcotest.int "nothing pending" 0 (Engine.pending e)

let test_trace_order_and_find () =
  let e = Engine.create () in
  let tr = Trace.create () in
  ignore (Engine.at e (Time.ms 1) (fun () ->
      Trace.record tr ~component:"a" (Trace.Custom "x")));
  ignore (Engine.at e (Time.ms 2) (fun () ->
      Trace.record tr ~component:"b" (Trace.Packet_tx { bytes = 100 })));
  ignore (Engine.at e (Time.ms 3) (fun () ->
      Trace.record tr ~component:"a" (Trace.Custom "z")));
  Engine.run e;
  check Alcotest.int "three events" 3 (List.length (Trace.events tr));
  check Alcotest.int "two at component a" 2
    (List.length (Trace.find tr ~component:"a"));
  (* Events are stamped with the engine clock (set_clock wired by create). *)
  (match Trace.events tr with
  | first :: _ -> check time "stamped at 1ms" (Time.ms 1) first.Trace.time
  | [] -> Alcotest.fail "no events");
  check Alcotest.int "one packet_tx" 1
    (List.length (Trace.find_cat tr Trace.Category.Packet_tx));
  Trace.clear tr;
  check Alcotest.int "cleared" 0 (List.length (Trace.events tr))

let test_trace_ring_wraparound () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.record tr ~component:"c" (Trace.Custom (string_of_int i))
  done;
  check Alcotest.int "len capped at capacity" 4 (Trace.length tr);
  check Alcotest.int "capacity" 4 (Trace.capacity tr);
  check Alcotest.int "overwritten counts the loss" 6 (Trace.overwritten tr);
  let details =
    List.map
      (fun (ev : Trace.event) ->
        match ev.Trace.kind with Trace.Custom d -> d | _ -> "?")
      (Trace.events tr)
  in
  check Alcotest.(list string) "oldest evicted, order kept"
    [ "7"; "8"; "9"; "10" ] details;
  Trace.clear tr;
  check Alcotest.int "clear resets overwritten" 0 (Trace.overwritten tr)

let test_trace_category_filtering () =
  let tr = Trace.create ~categories:[ Trace.Category.Packet_drop ] () in
  Trace.record tr ~component:"el" (Trace.Packet_tx { bytes = 10 });
  Trace.record tr ~component:"el"
    (Trace.Packet_drop { reason = "queue-overflow"; bytes = 10 });
  check Alcotest.int "disabled category records nothing" 1 (Trace.length tr);
  check Alcotest.bool "drop enabled" true
    (Trace.enabled tr Trace.Category.Packet_drop);
  check Alcotest.bool "tx disabled" false
    (Trace.enabled tr Trace.Category.Packet_tx);
  Trace.enable tr Trace.Category.Packet_tx;
  Trace.record tr ~component:"el" (Trace.Packet_tx { bytes = 10 });
  check Alcotest.int "enabled after enable" 2 (Trace.length tr);
  Trace.disable tr Trace.Category.Packet_drop;
  Trace.record tr ~component:"el"
    (Trace.Packet_drop { reason = "x"; bytes = 1 });
  check Alcotest.int "disabled after disable" 2 (Trace.length tr)

let test_trace_global_sink () =
  check Alcotest.bool "no sink: off" false (Trace.on Trace.Category.Packet_tx);
  Trace.emit ~component:"nowhere" (Trace.Custom "dropped on the floor");
  let tr = Trace.create ~categories:[ Trace.Category.Custom ] () in
  Trace.install tr;
  check Alcotest.bool "installed: custom on" true
    (Trace.on Trace.Category.Custom);
  check Alcotest.bool "installed: tx still off" false
    (Trace.on Trace.Category.Packet_tx);
  Trace.emit ~component:"somewhere" (Trace.Custom "landed");
  Trace.emit ~component:"somewhere" (Trace.Packet_tx { bytes = 1 });
  check Alcotest.int "only enabled category recorded" 1 (Trace.length tr);
  Trace.enable tr Trace.Category.Packet_tx;
  check Alcotest.bool "enable refreshes global mask" true
    (Trace.on Trace.Category.Packet_tx);
  Trace.emit ~component:"somewhere" (Trace.Packet_tx { bytes = 1 });
  Trace.uninstall ();
  check Alcotest.bool "uninstalled: off again" false
    (Trace.on Trace.Category.Custom);
  Trace.emit ~component:"somewhere" (Trace.Custom "after uninstall");
  check Alcotest.int "sink untouched after uninstall" 2 (Trace.length tr)

let test_engine_pending_counts_live () =
  (* pending is the live-event count (O(1)): cancellation is reflected
     immediately, and the lazy-delete sweep must not disturb it. *)
  let e = Engine.create () in
  let handles =
    List.init 200 (fun i -> Engine.at e (Time.us (i + 1)) (fun () -> ()))
  in
  check Alcotest.int "all live" 200 (Engine.pending e);
  List.iteri (fun i h -> if i mod 2 = 0 then Engine.cancel h) handles;
  check Alcotest.int "cancelled excluded" 100 (Engine.pending e);
  (match handles with
  | h :: _ ->
      Engine.cancel h;
      check Alcotest.int "double cancel counted once" 100 (Engine.pending e)
  | [] -> ());
  (* More scheduling triggers the dead-entry sweep; the count must hold. *)
  let fired = ref 0 in
  for i = 1 to 500 do
    ignore (Engine.at e (Time.ms i) (fun () -> incr fired))
  done;
  check Alcotest.int "after sweep and growth" 600 (Engine.pending e);
  Engine.run e;
  check Alcotest.int "exactly the live ones fired" 600 (100 + !fired);
  check Alcotest.int "drained" 0 (Engine.pending e)

let test_engine_instrumentation () =
  let e = Engine.create () in
  Engine.set_profiling e true;
  for i = 1 to 100 do
    ignore (Engine.at e (Time.us i) (fun () -> ()))
  done;
  check Alcotest.int "max_pending high-water" 100 (Engine.max_pending e);
  let h = Engine.at e (Time.ms 5) (fun () -> ()) in
  Engine.cancel h;
  Engine.run e;
  check Alcotest.int "fired" 100 (Engine.events_fired e);
  check Alcotest.int "cancelled popped" 1 (Engine.events_cancelled e);
  check Alcotest.int "horizon histogram populated" 101
    (Vini_std.Histogram.count (Engine.horizon_hist e));
  check Alcotest.int "callback histogram populated" 100
    (Vini_std.Histogram.count (Engine.callback_hist e))

(* ---- the per-packet flight recorder (hot half) ------------------------- *)

module Span = Vini_sim.Span

let span_cleanup () =
  Span.uninstall ();
  Trace.uninstall ()

let test_span_double_gate () =
  span_cleanup ();
  check Alcotest.bool "nothing installed: off" false (Span.on ());
  let r = Span.create ~capacity:8 () in
  Span.install r;
  check Alcotest.bool "recorder alone: still off" false (Span.on ());
  let tr = Trace.create ~categories:[ Trace.Category.Custom ] () in
  Trace.install tr;
  check Alcotest.bool "sink without span category: off" false (Span.on ());
  Trace.enable tr Trace.Category.Span;
  check Alcotest.bool "both halves open: on" true (Span.on ());
  Span.instant ~pkt:1 ~orig:1 ~component:"x" Span.Proto_processing;
  check Alcotest.int "recorded" 1 (Span.length r);
  Trace.disable tr Trace.Category.Span;
  check Alcotest.bool "category disabled: off" false (Span.on ());
  Trace.enable tr Trace.Category.Span;
  Span.uninstall ();
  check Alcotest.bool "recorder removed: off" false (Span.on ());
  Trace.uninstall ();
  check Alcotest.bool "all removed: off" false (Span.on ())

let test_span_ring_bounded () =
  span_cleanup ();
  let r = Span.create ~capacity:4 () in
  Span.install r;
  let tr = Trace.create ~categories:[ Trace.Category.Span ] () in
  Trace.install tr;
  for i = 1 to 10 do
    Span.instant ~pkt:i ~orig:i ~component:"ring" Span.Proto_processing
  done;
  check Alcotest.int "length capped" 4 (Span.length r);
  check Alcotest.int "capacity" 4 (Span.capacity r);
  check Alcotest.int "overwritten counted" 6 (Span.overwritten r);
  check
    (Alcotest.list Alcotest.int)
    "oldest evicted, order kept" [ 7; 8; 9; 10 ]
    (List.map Span.record_pkt (Span.records r));
  Span.clear r;
  check Alcotest.int "clear empties" 0 (Span.length r);
  check Alcotest.int "clear resets overwritten" 0 (Span.overwritten r);
  span_cleanup ()

let test_span_queue_helpers () =
  span_cleanup ();
  let e = Engine.create () in
  let r = Span.create ~capacity:16 () in
  Span.install r;
  let tr = Trace.create ~categories:[ Trace.Category.Span ] () in
  Trace.install tr;
  ignore (Engine.at e (Time.ms 1) (fun () -> Span.note_enqueue ~pkt:7));
  ignore
    (Engine.at e (Time.ms 3) (fun () ->
         Span.dequeue_hop ~pkt:7 ~orig:7 ~component:"q" ();
         (* Unknown id and zero wait both record nothing. *)
         Span.dequeue_hop ~pkt:99 ~orig:99 ~component:"q" ();
         Span.note_enqueue ~pkt:8;
         Span.dequeue_hop ~pkt:8 ~orig:8 ~component:"q" ()));
  Engine.run e;
  (match Span.records r with
  | [ Span.Hop { pkt = 7; attribution = Span.Queueing; t0; t1; _ } ] ->
      check time "wait opens at enqueue" (Time.ms 1) t0;
      check time "wait closes at dequeue" (Time.ms 3) t1
  | records ->
      Alcotest.failf "expected exactly the pkt-7 queueing hop, got %d records"
        (List.length records));
  span_cleanup ()

let test_span_disabled_records_nothing () =
  span_cleanup ();
  let r = Span.create ~capacity:8 () in
  (* Not installed: emitters must be inert even when called directly. *)
  Span.origin ~pkt:1 ~orig:1 ~bytes:64 ~component:"x" ();
  Span.drop ~pkt:1 ~orig:1 ~component:"x" ~reason:"r" ~bytes:64 ();
  Span.note_enqueue ~pkt:1;
  Span.dequeue_hop ~pkt:1 ~orig:1 ~component:"x" ();
  check Alcotest.int "nothing recorded" 0 (Span.length r)

let test_span_attribution_names () =
  List.iter
    (fun a ->
      check Alcotest.bool "name round-trips" true
        (Span.attribution_of_name (Span.attribution_name a) = Some a))
    Span.attributions;
  check Alcotest.bool "unknown name rejected" true
    (Span.attribution_of_name "warp_drive" = None)

let suite =
  [
    Alcotest.test_case "time units" `Quick test_time_units;
    Alcotest.test_case "time arithmetic" `Quick test_time_arith;
    Alcotest.test_case "events fire in order" `Quick test_engine_ordering;
    Alcotest.test_case "equal times are fifo" `Quick test_engine_same_time_fifo;
    Alcotest.test_case "clock advances" `Quick test_engine_clock_advances;
    Alcotest.test_case "run ~until" `Quick test_engine_until_advances_clock;
    Alcotest.test_case "cancellation" `Quick test_engine_cancel;
    Alcotest.test_case "after is relative" `Quick test_engine_after_relative;
    Alcotest.test_case "past schedule clamps" `Quick test_engine_past_schedules_now;
    Alcotest.test_case "every stops on false" `Quick test_engine_every_stops;
    Alcotest.test_case "every jitter bounded" `Quick test_engine_every_jitter_bounded;
    Alcotest.test_case "single step" `Quick test_engine_step;
    Alcotest.test_case "deterministic replay" `Quick test_engine_deterministic_replay;
    Alcotest.test_case "cancel from another callback" `Quick
      test_engine_cancel_from_callback;
    QCheck_alcotest.to_alcotest prop_inline_matches_queued;
    QCheck_alcotest.to_alcotest prop_timer_matches_cancel_at;
    Alcotest.test_case "timer re-arm allocates nothing" `Quick
      test_timer_rearm_allocates_nothing;
    Alcotest.test_case "trace records and finds" `Quick test_trace_order_and_find;
    Alcotest.test_case "trace ring wraparound" `Quick test_trace_ring_wraparound;
    Alcotest.test_case "trace category filtering" `Quick
      test_trace_category_filtering;
    Alcotest.test_case "trace global sink" `Quick test_trace_global_sink;
    Alcotest.test_case "pending counts live events" `Quick
      test_engine_pending_counts_live;
    Alcotest.test_case "engine instrumentation" `Quick
      test_engine_instrumentation;
    Alcotest.test_case "span double gate" `Quick test_span_double_gate;
    Alcotest.test_case "span ring bounded" `Quick test_span_ring_bounded;
    Alcotest.test_case "span queue helpers" `Quick test_span_queue_helpers;
    Alcotest.test_case "span disabled is inert" `Quick
      test_span_disabled_records_nothing;
    Alcotest.test_case "span attribution names" `Quick
      test_span_attribution_names;
  ]
