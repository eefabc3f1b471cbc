(* Order statistics and ratios over one run's samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median = function
  | [] -> None
  | xs ->
      let a = sorted xs in
      let n = Array.length a in
      Some
        (if n mod 2 = 1 then a.(n / 2)
         else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0)

let median0 xs = Option.value (median xs) ~default:0.0

(* The highest percentile that still has [beyond] samples above it: with
   [n] sorted samples that is the one at position [n - beyond - 1], i.e.
   percentile [100 (n - beyond) / n].  Fewer than [beyond + 1] samples
   support no tail at all, so none is reported. *)
let tail ?(beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < beyond + 1 then None
  else Some (100.0 *. float_of_int (n - beyond) /. float_of_int n, a.(n - beyond - 1))

(* A ratio whose denominator can legitimately be zero (no lookups, no
   packets, no arrivals) reads 0: the layer did none of that work. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den

(* Mean absolute relative error, in percent, of measured values against
   their references. *)
let mean_abs_rel_err_pct pairs =
  match pairs with
  | [] -> 0.0
  | _ ->
      let sum =
        List.fold_left
          (fun acc (measured, reference) ->
            acc +. (Float.abs (measured -. reference) /. Float.abs reference))
          0.0 pairs
      in
      100.0 *. sum /. float_of_int (List.length pairs)
