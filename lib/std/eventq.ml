(* An array-based binary min-heap ordered by (key, seq), specialised for
   the simulation engine's event queue.  At the queue depths a VINI
   deployment sustains (tens to a few hundred pending events) the heap's
   ~log2 n integer compares are cheap, every operation works in
   preallocated parallel arrays (push and pop allocate nothing beyond
   [pop]'s option), and [min_key] — the breath-coalescing test the engine
   runs on every inline-eligible schedule — is a single array load.

   Determinism: entries carry an insertion sequence number and the heap
   orders by (key, seq), so pop order is exactly FIFO within a timestamp,
   pop for pop the order of the stable {!Heap}.  Keys clamp to
   [0, max_int/2]; clamping preserves (key, seq) order. *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a; (* fills vacated slots so the heap never pins dead values *)
}

let max_key = max_int / 2
let clamp_key key = if key < 0 then 0 else if key > max_key then max_key else key

let create ?(capacity = 16) ~dummy () =
  let capacity = max capacity 1 in
  {
    keys = Array.make capacity 0;
    seqs = Array.make capacity 0;
    vals = Array.make capacity dummy;
    size = 0;
    next_seq = 0;
    dummy;
  }

let length t = t.size
let is_empty t = t.size = 0

let grow t =
  let cap = Array.length t.keys in
  let cap' = 2 * cap in
  let keys = Array.make cap' 0 in
  Array.blit t.keys 0 keys 0 cap;
  t.keys <- keys;
  let seqs = Array.make cap' 0 in
  Array.blit t.seqs 0 seqs 0 cap;
  t.seqs <- seqs;
  let vals = Array.make cap' t.dummy in
  Array.blit t.vals 0 vals 0 cap;
  t.vals <- vals

(* Hole-based sift: carry the moving entry in registers and shift blocking
   entries into the hole, one move per level instead of a three-array
   swap.  [sift_up]/[sift_down] place entry (k, s, v) starting from the
   hole at [i]. *)
let sift_up t i k s v =
  let keys = t.keys and seqs = t.seqs and vals = t.vals in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pk = Array.unsafe_get keys p in
    if pk > k || (pk = k && Array.unsafe_get seqs p > s) then begin
      Array.unsafe_set keys !i pk;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set vals !i (Array.unsafe_get vals p);
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set keys !i k;
  Array.unsafe_set seqs !i s;
  Array.unsafe_set vals !i v

let sift_down t i k s v =
  let keys = t.keys and seqs = t.seqs and vals = t.vals in
  let n = t.size in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let m =
        if r < n then begin
          let lk = Array.unsafe_get keys l and rk = Array.unsafe_get keys r in
          if rk < lk || (rk = lk && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
          then r
          else l
        end
        else l
      in
      let mk = Array.unsafe_get keys m in
      if mk < k || (mk = k && Array.unsafe_get seqs m < s) then begin
        Array.unsafe_set keys !i mk;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs m);
        Array.unsafe_set vals !i (Array.unsafe_get vals m);
        i := m
      end
      else continue := false
    end
  done;
  Array.unsafe_set keys !i k;
  Array.unsafe_set seqs !i s;
  Array.unsafe_set vals !i v

let reserve_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let push_seq t ~key ~seq value =
  if t.size = Array.length t.keys then grow t;
  let i = t.size in
  t.size <- i + 1;
  sift_up t i (clamp_key key) seq value

let push t ~key value = push_seq t ~key ~seq:(reserve_seq t) value

(* [max_int] when empty: no clamped key can reach it, so the engine's run
   loops use it as an unambiguous "nothing pending" sentinel. *)
let min_key t = if t.size = 0 then max_int else t.keys.(0)

let peek t = if t.size = 0 then None else Some t.vals.(0)

let pop t =
  if t.size = 0 then None
  else begin
    let v = t.vals.(0) in
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then begin
      let lk = t.keys.(n) and ls = t.seqs.(n) and lv = t.vals.(n) in
      t.vals.(n) <- t.dummy;
      sift_down t 0 lk ls lv
    end
    else t.vals.(0) <- t.dummy;
    Some v
  end

(* Drop entries whose value satisfies [dead], then restore the heap
   property bottom-up.  Pop order over the survivors is unchanged: it is
   determined by the (key, seq) comparator, not the array layout. *)
let compact t ~dead =
  let kept = ref 0 in
  for i = 0 to t.size - 1 do
    if not (dead t.vals.(i)) then begin
      t.keys.(!kept) <- t.keys.(i);
      t.seqs.(!kept) <- t.seqs.(i);
      t.vals.(!kept) <- t.vals.(i);
      incr kept
    end
  done;
  let removed = t.size - !kept in
  for i = !kept to t.size - 1 do
    t.vals.(i) <- t.dummy
  done;
  t.size <- !kept;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i t.keys.(i) t.seqs.(i) t.vals.(i)
  done;
  removed

let clear t =
  for i = 0 to t.size - 1 do
    t.vals.(i) <- t.dummy
  done;
  t.size <- 0
