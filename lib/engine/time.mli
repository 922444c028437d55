(** Simulated time.

    Both instants and durations are represented as a number of
    nanoseconds held in an immediate 63-bit [int], so time arithmetic
    never allocates.  At nanosecond resolution that covers ±2{^62} ns,
    roughly ±146 years of simulated time, far beyond any experiment in
    this repository.  Instants are measured from the simulation epoch
    ([zero]); durations are plain differences of instants.  The two share
    one type on purpose: the arithmetic is the same and the simulator
    never needs wall-clock time. *)

type t [@@immediate]
(** An instant or duration, in nanoseconds. *)

val zero : t
(** The simulation epoch (also the zero duration). *)

val ns : int -> t
(** [ns n] is a duration of [n] nanoseconds. *)

val us : int -> t
(** [us n] is a duration of [n] microseconds. *)

val ms : int -> t
(** [ms n] is a duration of [n] milliseconds. *)

val s : int -> t
(** [s n] is a duration of [n] seconds. *)

val of_sec_f : float -> t
(** [of_sec_f x] is the duration of [x] seconds, rounded to the nearest
    nanosecond.  Raises [Invalid_argument] if [x] is not finite or the
    result lies beyond ±2{^62} ns. *)

val of_ms_f : float -> t
(** [of_ms_f x] is the duration of [x] milliseconds, rounded to the
    nearest nanosecond.  Raises [Invalid_argument] if [x] is not
    finite or the result lies beyond ±2{^62} ns. *)

val to_ns : t -> int
(** [to_ns t] is the raw nanosecond count. *)

val to_sec_f : t -> float
(** [to_sec_f t] is [t] expressed in seconds. *)

val to_ms_f : t -> float
(** [to_ms_f t] is [t] expressed in milliseconds. *)

val to_us_f : t -> float
(** [to_us_f t] is [t] expressed in microseconds. *)

val add : t -> t -> t
(** [add a b] is [a + b].  Saturates at [max_value] instead of wrapping. *)

val sub : t -> t -> t
(** [sub a b] is [a - b].  The result may be negative; see {!is_negative}. *)

val diff : t -> t -> t
(** [diff later earlier] is [sub later earlier]. *)

val mul_int : t -> int -> t
(** [mul_int t k] is [t] scaled by the integer factor [k]. *)

val div_int : t -> int -> t
(** [div_int t k] is [t / k] (integer division).  Raises
    [Division_by_zero] if [k = 0]. *)

val scale : t -> float -> t
(** [scale t x] is [t] scaled by the float factor [x], rounded to the
    nearest nanosecond.  Raises [Invalid_argument] if the result is not
    finite or lies beyond ±2{^62} ns. *)

val ratio : t -> t -> float
(** [ratio a b] is [a / b] as a float.  Raises [Division_by_zero] if
    [b] is {!zero}. *)

val compare : t -> t -> int
(** Total order on instants/durations. *)

val equal : t -> t -> bool

val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val min : t -> t -> t
val max : t -> t -> t

val is_negative : t -> bool
(** [is_negative t] is true iff [t] is a negative duration. *)

val max_value : t
(** The largest representable instant, [2{^62} - 1] ns; used as
    "never".  {!add} saturates here. *)

val pp : Format.formatter -> t -> unit
(** [pp fmt t] prints [t] with an automatically chosen unit
    (e.g. ["1.5ms"], ["250us"], ["2.0s"]). *)

val to_string : t -> string
(** [to_string t] is [Format.asprintf "%a" pp t]. *)
