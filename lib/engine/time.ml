type t = int

let zero = 0
let max_value = max_int

let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let s n = n * 1_000_000_000

(* Floats convert only inside the representable range: [Float.to_int]
   is unspecified beyond it, so an out-of-range duration is an error
   rather than a silent wrap. *)
let[@inline] of_float_ns x =
  if not (Float.is_finite x) then invalid_arg "Time: non-finite duration";
  let r = Float.round x in
  if not (Float.abs r < 0x1p62) then invalid_arg "Time: duration out of range";
  Float.to_int r

let of_sec_f x = of_float_ns (x *. 1e9)
let of_ms_f x = of_float_ns (x *. 1e6)

let to_ns t = t

let to_sec_f t = float_of_int t /. 1e9
let to_ms_f t = float_of_int t /. 1e6
let to_us_f t = float_of_int t /. 1e3

(* Saturating addition: an event scheduled "never + delta" must stay
   "never", not wrap around to the distant past. *)
let add (a : int) b =
  let r = a + b in
  if a > 0 && b > 0 && r < 0 then max_int else r

let sub (a : int) b = a - b
let diff later earlier = sub later earlier
let mul_int (t : int) k = t * k

let div_int (t : int) k =
  if k = 0 then raise Division_by_zero;
  t / k

let scale t x = of_float_ns (float_of_int t *. x)

let ratio a b =
  if b = 0 then raise Division_by_zero;
  float_of_int a /. float_of_int b

let compare (a : int) b = Int.compare a b
let equal (a : int) b = a = b
let ( < ) (a : int) b = a < b
let ( <= ) (a : int) b = a <= b
let ( > ) (a : int) b = a > b
let ( >= ) (a : int) b = a >= b
let min (a : int) b = if a <= b then a else b
let max (a : int) b = if a >= b then a else b
let is_negative (t : int) = t < 0

let pp fmt t =
  let abs = Stdlib.abs t in
  let sign = if is_negative t then "-" else "" in
  if abs < 1_000 then Format.fprintf fmt "%s%dns" sign abs
  else if abs < 1_000_000 then
    Format.fprintf fmt "%s%.1fus" sign (float_of_int abs /. 1e3)
  else if abs < 1_000_000_000 then
    Format.fprintf fmt "%s%.2fms" sign (float_of_int abs /. 1e6)
  else Format.fprintf fmt "%s%.3fs" sign (float_of_int abs /. 1e9)

let to_string t = Format.asprintf "%a" pp t
