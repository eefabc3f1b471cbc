module Packet = Vini_net.Packet

type t = {
  slots : Packet.t array;
  mutable head : int; (* next pop position *)
  mutable len : int;
  mutable depth_hwm : int; (* deepest the ring has ever been *)
  mutable pushes : int;
  mutable pops : int;
  mutable rejected : int; (* pushes refused because the ring was full *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be positive";
  (* Reuses the batch filler so only one dummy packet id is ever minted. *)
  {
    slots = Array.make capacity (Lazy.force Batch.filler);
    head = 0;
    len = 0;
    depth_hwm = 0;
    pushes = 0;
    pops = 0;
    rejected = 0;
  }

(* Indices stay in [0, cap) and advance by at most cap, so a compare and
   subtract replace the [mod] (an integer division) on every hot-path
   access. *)
let[@inline] wrap cap i = if i >= cap then i - cap else i

let push t pkt =
  let cap = Array.length t.slots in
  if t.len = cap then begin
    t.rejected <- t.rejected + 1;
    false
  end
  else begin
    Array.unsafe_set t.slots (wrap cap (t.head + t.len)) pkt;
    t.len <- t.len + 1;
    if t.len > t.depth_hwm then t.depth_hwm <- t.len;
    t.pushes <- t.pushes + 1;
    true
  end

let pop t =
  if t.len = 0 then None
  else begin
    let pkt = Array.unsafe_get t.slots t.head in
    t.head <- wrap (Array.length t.slots) (t.head + 1);
    t.len <- t.len - 1;
    t.pops <- t.pops + 1;
    Some pkt
  end

let pop_into t batch ~max =
  let cap = Array.length t.slots in
  let n = Int.min t.len (Int.min max (Batch.capacity batch - Batch.length batch)) in
  let idx = ref t.head in
  for _ = 1 to n do
    ignore (Batch.add batch (Array.unsafe_get t.slots !idx));
    idx := wrap cap (!idx + 1)
  done;
  t.head <- !idx;
  t.len <- t.len - n;
  t.pops <- t.pops + n;
  n

let length t = t.len
let capacity t = Array.length t.slots
let is_empty t = t.len = 0
let depth_hwm t = t.depth_hwm
let pushes t = t.pushes
let pops t = t.pops
let rejected t = t.rejected

let clear t =
  t.head <- 0;
  t.len <- 0
