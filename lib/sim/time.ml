type t = int

let zero = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000
let of_sec_f s = int_of_float (Float.round (s *. 1e9))
let to_sec_f t = float_of_int t /. 1e9
let to_ms_f t = float_of_int t /. 1e6
let of_ms_f m = int_of_float (Float.round (m *. 1e6))
external add : t -> t -> t = "%addint"
external sub : t -> t -> t = "%subint"
external mul : t -> int -> t = "%mulint"
let max_value = max_int
external compare : t -> t -> int = "%compare"
external ( <= ) : t -> t -> bool = "%lessequal"
external ( < ) : t -> t -> bool = "%lessthan"
external ( >= ) : t -> t -> bool = "%greaterequal"
external ( > ) : t -> t -> bool = "%greaterthan"
let min (a : t) b = if a <= b then a else b
let max (a : t) b = if a >= b then a else b
let pp ppf t = Format.fprintf ppf "%.6fs" (to_sec_f t)
