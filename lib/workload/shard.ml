(* Deterministic partitions for sharded consensus-scale runs.

   Everything here is a pure function of (slot count, shard count): the
   same inputs give the same partition on every machine, every run, and
   every jobs setting — which is what lets the engine promise
   bit-identical results across shard counts.  Slots are split into
   contiguous balanced ranges, so shard-local circuit state stays
   cache-friendly and the owner of a slot is O(1) arithmetic. *)

let count ~slots ~shards =
  if shards < 1 then invalid_arg "Shard.count: shards must be positive";
  if slots < 1 then invalid_arg "Shard.count: slots must be positive";
  Stdlib.min shards slots

(* Balanced contiguous ranges: the first [slots mod k] shards get one
   extra slot.  Covers [0, slots) exactly, in shard order. *)
let slot_range ~slots ~shards k =
  let n = count ~slots ~shards in
  if k < 0 || k >= n then invalid_arg "Shard.slot_range: shard out of range";
  let base = slots / n and extra = slots mod n in
  let lo = (k * base) + Stdlib.min k extra in
  let hi = lo + base + if k < extra then 1 else 0 in
  (lo, hi)

let owner_of_slot ~slots ~shards i =
  let n = count ~slots ~shards in
  if i < 0 || i >= slots then
    invalid_arg "Shard.owner_of_slot: slot out of range";
  let base = slots / n and extra = slots mod n in
  (* Invert [slot_range]: the first [extra] shards span [base + 1]
     slots each. *)
  let wide = extra * (base + 1) in
  if i < wide then i / (base + 1) else extra + ((i - wide) / base)
