(* Host-clock spans the benchmark records around each call it makes into a
   layer (parse, generate, build, deploy, every engine window, ...).  Off
   unless a traced run switches it on; spans stay in memory and are
   written once, when the run ends. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  start : float;
  stop : float;
}

let on = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let reset () =
  spans := [];
  stack := [];
  next_id := 0

let with_span name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        stack := List.tl !stack;
        spans := { id; name; parent; start; stop = Unix.gettimeofday () } :: !spans)
      f
  end

let all () = List.rev !spans

(* Per span name: (calls, total seconds, self seconds), where self time is
   the span's duration minus the time its direct children cover. *)
let summary () =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          ((s.stop -. s.start)
          +. Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0))
    !spans;
  let rows = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let self =
        d -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0
      in
      let n, tot, slf =
        Option.value (Hashtbl.find_opt rows s.name) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace rows s.name (n + 1, tot +. d, slf +. self))
    !spans;
  Hashtbl.fold (fun name (n, tot, slf) acc -> (name, n, tot, slf) :: acc) rows []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

(* Chrome trace-event JSON (loads in Perfetto / chrome://tracing): one
   complete ("X") event per span, microseconds from the first span. *)
let write path =
  let all = all () in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity all in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        (if i = 0 then "" else ",")
        s.name
        ((s.start -. t0) *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        s.id s.parent)
    all;
  output_string oc "\n]}\n";
  close_out oc
