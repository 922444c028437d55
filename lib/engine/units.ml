let kib n = n * 1024
let mib n = n * 1024 * 1024

let pp_bytes fmt n =
  if n < 1024 then Format.fprintf fmt "%dB" n
  else if n < 1024 * 1024 then Format.fprintf fmt "%.1fKiB" (float_of_int n /. 1024.)
  else Format.fprintf fmt "%.1fMiB" (float_of_int n /. (1024. *. 1024.))

module Rate = struct
  type t = int (* bits per second, > 0 *)

  let bps n =
    if n <= 0 then invalid_arg "Rate.bps: rate must be positive";
    n

  let kbit n = bps (n * 1_000)
  let mbit n = bps (n * 1_000_000)

  let mbit_f x =
    if not (Float.is_finite x) || x <= 0. then
      invalid_arg "Rate.mbit_f: rate must be positive and finite";
    Stdlib.max 1 (int_of_float (x *. 1e6))

  let to_bps r = r
  let to_bytes_per_sec r = float_of_int r /. 8.

  let ns_per_s = 1_000_000_000

  (* Below this many bits, [bits * ns_per_s] fits in an int. *)
  let direct_bits = max_int / ns_per_s

  let transmission_time r bytes =
    if bytes < 0 then invalid_arg "Rate.transmission_time: negative size";
    if bytes > max_int / 8 then invalid_arg "Rate.transmission_time: size out of range";
    let bits = bytes * 8 in
    (* ceil (bits * 1e9 / r) nanoseconds.  Up to [direct_bits] (~576 MB)
       the product fits in 63 bits.  Beyond it, whole seconds and the
       remainder's nanoseconds are computed apart, the latter by long
       division one decimal digit at a time, so no intermediate exceeds
       [10 * r]. *)
    if bits <= direct_bits then begin
      let num = bits * ns_per_s in
      let q = num / r in
      Time.ns (if num mod r = 0 then q else q + 1)
    end
    else begin
      let secs = bits / r in
      if secs >= max_int / ns_per_s || r > max_int / 10 then
        invalid_arg "Rate.transmission_time: duration out of range";
      let rem = ref (bits mod r) and frac = ref 0 in
      for _ = 1 to 9 do
        rem := !rem * 10;
        frac := (!frac * 10) + (!rem / r);
        rem := !rem mod r
      done;
      Time.ns ((secs * ns_per_s) + !frac + if !rem = 0 then 0 else 1)
    end

  let bdp_bytes r rtt = int_of_float (to_bytes_per_sec r *. Time.to_sec_f rtt)
  let min a b = Stdlib.min a b
  let compare = Stdlib.compare
  let equal = Int.equal

  let scale r x =
    if not (Float.is_finite x) || x <= 0. then
      invalid_arg "Rate.scale: factor must be positive and finite";
    Stdlib.max 1 (int_of_float (float_of_int r *. x))

  let pp fmt r =
    if r < 1_000 then Format.fprintf fmt "%dbit/s" r
    else if r < 1_000_000 then Format.fprintf fmt "%.0fkbit/s" (float_of_int r /. 1e3)
    else Format.fprintf fmt "%.1fMbit/s" (float_of_int r /. 1e6)
end
