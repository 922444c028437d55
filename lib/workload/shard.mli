(** Deterministic partitions for sharded consensus-scale runs.

    Pure functions of [(slots, shards)]: the {!Network_experiment}
    engine derives which shard runs each circuit slot from these, so
    the partition is identical on every machine and across every
    [--jobs]/[--shards] setting. *)

val count : slots:int -> shards:int -> int
(** Effective shard count: [shards] clamped to [slots] so no shard is
    empty.  Raises [Invalid_argument] unless both are positive. *)

val slot_range : slots:int -> shards:int -> int -> int * int
(** [slot_range ~slots ~shards k] is shard [k]'s contiguous slot range
    [(lo, hi)] (half-open).  The ranges of shards [0 .. count - 1]
    tile [0, slots) exactly, in order, balanced to within one slot.
    Raises [Invalid_argument] if [k] is outside [0, count). *)

val owner_of_slot : slots:int -> shards:int -> int -> int
(** The shard whose {!slot_range} contains slot [i] — the O(1) inverse
    of {!slot_range}.  Raises [Invalid_argument] if [i] is outside
    [0, slots). *)
