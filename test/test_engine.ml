(* Unit and property tests for the discrete-event engine. *)

let time = Alcotest.testable Engine.Time.pp Engine.Time.equal

(* ------------------------------------------------------------------ *)
(* Time *)

let test_time_constructors () =
  Alcotest.check time "us" (Engine.Time.ns 1_000) (Engine.Time.us 1);
  Alcotest.check time "ms" (Engine.Time.us 1_000) (Engine.Time.ms 1);
  Alcotest.check time "s" (Engine.Time.ms 1_000) (Engine.Time.s 1);
  Alcotest.check time "of_sec_f" (Engine.Time.ms 1_500) (Engine.Time.of_sec_f 1.5);
  Alcotest.check time "of_ms_f" (Engine.Time.us 250) (Engine.Time.of_ms_f 0.25)

let test_time_arithmetic () =
  let a = Engine.Time.ms 5 and b = Engine.Time.ms 3 in
  Alcotest.check time "add" (Engine.Time.ms 8) (Engine.Time.add a b);
  Alcotest.check time "sub" (Engine.Time.ms 2) (Engine.Time.sub a b);
  Alcotest.check time "diff" (Engine.Time.ms 2) (Engine.Time.diff a b);
  Alcotest.check time "mul_int" (Engine.Time.ms 15) (Engine.Time.mul_int a 3);
  Alcotest.check time "div_int" (Engine.Time.ms 1) (Engine.Time.div_int b 3);
  Alcotest.check time "scale" (Engine.Time.ms 10) (Engine.Time.scale a 2.);
  Alcotest.(check (float 1e-9)) "ratio" (5. /. 3.) (Engine.Time.ratio a b);
  Alcotest.(check bool) "negative" true
    (Engine.Time.is_negative (Engine.Time.sub b a))

let test_time_saturation () =
  let huge = Engine.Time.max_value in
  Alcotest.check time "add saturates" huge (Engine.Time.add huge (Engine.Time.s 1));
  Alcotest.(check int) "max_value is 2^62 - 1 ns" max_int (Engine.Time.to_ns huge);
  Alcotest.check time "add saturates from below" huge
    (Engine.Time.add (Engine.Time.sub huge (Engine.Time.ns 10)) (Engine.Time.ns 20));
  Alcotest.check time "add just below max" huge
    (Engine.Time.add (Engine.Time.sub huge (Engine.Time.ns 10)) (Engine.Time.ns 10))

let test_time_conversions () =
  Alcotest.(check (float 1e-12)) "to_sec_f" 0.002 (Engine.Time.to_sec_f (Engine.Time.ms 2));
  Alcotest.(check (float 1e-9)) "to_ms_f" 2. (Engine.Time.to_ms_f (Engine.Time.ms 2));
  Alcotest.(check (float 1e-6)) "to_us_f" 2000. (Engine.Time.to_us_f (Engine.Time.ms 2))

let test_time_pp () =
  Alcotest.(check string) "ns" "500ns" (Engine.Time.to_string (Engine.Time.ns 500));
  Alcotest.(check string) "us" "1.5us" (Engine.Time.to_string (Engine.Time.ns 1_500));
  Alcotest.(check string) "ms" "2.50ms" (Engine.Time.to_string (Engine.Time.us 2_500));
  Alcotest.(check string) "s" "3.000s" (Engine.Time.to_string (Engine.Time.s 3))

let test_time_invalid () =
  Alcotest.check_raises "non-finite" (Invalid_argument "Time: non-finite duration")
    (fun () -> ignore (Engine.Time.of_sec_f Float.nan));
  let out_of_range = Invalid_argument "Time: duration out of range" in
  (* 2^62 ns is about 4.61e9 s: one past the representable range. *)
  Alcotest.check_raises "of_sec_f beyond 2^62 ns" out_of_range (fun () ->
      ignore (Engine.Time.of_sec_f 4.7e9));
  Alcotest.check_raises "of_sec_f below -2^62 ns" out_of_range (fun () ->
      ignore (Engine.Time.of_sec_f (-4.7e9)));
  Alcotest.check_raises "of_ms_f beyond 2^62 ns" out_of_range (fun () ->
      ignore (Engine.Time.of_ms_f 4.7e12));
  Alcotest.check_raises "scale beyond 2^62 ns" out_of_range (fun () ->
      ignore (Engine.Time.scale (Engine.Time.s 4_000_000) 2e3));
  Alcotest.check time "of_sec_f just inside the range"
    (Engine.Time.s 4_000_000_000) (Engine.Time.of_sec_f 4e9);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Engine.Time.div_int (Engine.Time.s 1) 0))

let prop_time_order =
  QCheck2.Test.make ~name:"time order is total and consistent with ns"
    QCheck2.Gen.(pair (int_range (-1_000_000) 1_000_000) (int_range (-1_000_000) 1_000_000))
    (fun (a, b) ->
      let ta = Engine.Time.ns a and tb = Engine.Time.ns b in
      Engine.Time.(ta < tb) = (a < b)
      && Engine.Time.(ta <= tb) = (a <= b)
      && Engine.Time.equal (Engine.Time.min ta tb) (Engine.Time.ns (Stdlib.min a b)))

let prop_time_add_sub =
  QCheck2.Test.make ~name:"add then sub is identity"
    QCheck2.Gen.(pair (int_range (-1_000_000) 1_000_000) (int_range (-1_000_000) 1_000_000))
    (fun (a, b) ->
      let ta = Engine.Time.ns a and tb = Engine.Time.ns b in
      Engine.Time.equal (Engine.Time.sub (Engine.Time.add ta tb) tb) ta)

(* ------------------------------------------------------------------ *)
(* Units *)

let test_rate_constructors () =
  Alcotest.(check int) "kbit" 2_000 (Engine.Units.Rate.to_bps (Engine.Units.Rate.kbit 2));
  Alcotest.(check int) "mbit" 3_000_000
    (Engine.Units.Rate.to_bps (Engine.Units.Rate.mbit 3));
  Alcotest.(check int) "mbit_f" 1_500_000
    (Engine.Units.Rate.to_bps (Engine.Units.Rate.mbit_f 1.5));
  Alcotest.check_raises "zero rate" (Invalid_argument "Rate.bps: rate must be positive")
    (fun () -> ignore (Engine.Units.Rate.bps 0))

let test_transmission_time () =
  Alcotest.check time "exact"
    (Engine.Time.s 1)
    (Engine.Units.Rate.transmission_time (Engine.Units.Rate.kbit 8) 1000);
  Alcotest.check time "ceil"
    (Engine.Time.ns 2_666_666_667)
    (Engine.Units.Rate.transmission_time (Engine.Units.Rate.bps 3) 1);
  Alcotest.check time "zero bytes" Engine.Time.zero
    (Engine.Units.Rate.transmission_time (Engine.Units.Rate.mbit 1) 0)

(* Sizes whose bit count times 1e9 overflows 63 bits take the split
   path; expected values are exact ceil (bytes * 8e9 / rate). *)
let test_transmission_time_large () =
  let tt r bytes = Engine.Time.to_ns (Engine.Units.Rate.transmission_time r bytes) in
  let bps = Engine.Units.Rate.bps in
  Alcotest.(check int) "1 TiB at 1 Gbit/s" 8_796_093_022_208
    (tt (bps 1_000_000_000) (1 lsl 40));
  Alcotest.(check int) "1 GiB at 3 bit/s, rounded up" 2_863_311_530_666_666_667
    (tt (bps 3) (1 lsl 30));
  Alcotest.(check int) "600 MB at 7 Mbit/s" 685_714_285_715
    (tt (bps 7_000_000) 600_000_000);
  (* Both sides of the direct/split boundary agree with the exact
     value. *)
  Alcotest.(check int) "largest direct size" 658_812_288_000
    (tt (bps 7_000_000) 576_460_752);
  Alcotest.(check int) "first split size" 658_812_289_143
    (tt (bps 7_000_000) 576_460_753);
  Alcotest.check_raises "duration beyond the range"
    (Invalid_argument "Rate.transmission_time: duration out of range") (fun () ->
      ignore (tt (bps 1) (1 lsl 40)));
  Alcotest.check_raises "size beyond the range"
    (Invalid_argument "Rate.transmission_time: size out of range") (fun () ->
      ignore (tt (bps 1) max_int))

let test_bdp () =
  Alcotest.(check int) "bdp" 100_000
    (Engine.Units.Rate.bdp_bytes (Engine.Units.Rate.mbit 8) (Engine.Time.ms 100))

let test_sizes () =
  Alcotest.(check int) "kib" 2048 (Engine.Units.kib 2);
  Alcotest.(check int) "mib" (1024 * 1024) (Engine.Units.mib 1)

let prop_transmission_additive =
  QCheck2.Test.make ~name:"transmission time roughly additive in size"
    QCheck2.Gen.(pair (int_range 1 100_000) (int_range 1 100_000))
    (fun (a, b) ->
      let r = Engine.Units.Rate.mbit 10 in
      let t_ab = Engine.Units.Rate.transmission_time r (a + b) in
      let t_sum =
        Engine.Time.add
          (Engine.Units.Rate.transmission_time r a)
          (Engine.Units.Rate.transmission_time r b)
      in
      abs (Engine.Time.to_ns t_ab - Engine.Time.to_ns t_sum) <= 1)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Engine.Rng.create 1 and b = Engine.Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Engine.Rng.bits64 a) (Engine.Rng.bits64 b)
  done

let test_rng_split_independence () =
  let root = Engine.Rng.create 2 in
  let child = Engine.Rng.split root in
  let x = Engine.Rng.bits64 child in
  let root2 = Engine.Rng.create 2 in
  let child2 = Engine.Rng.split root2 in
  Alcotest.(check int64) "split reproducible" x (Engine.Rng.bits64 child2)

let test_rng_copy () =
  let a = Engine.Rng.create 3 in
  ignore (Engine.Rng.bits64 a);
  let b = Engine.Rng.copy a in
  Alcotest.(check int64) "copies agree" (Engine.Rng.bits64 a) (Engine.Rng.bits64 b)

let test_rng_bounds () =
  let rng = Engine.Rng.create 4 in
  for _ = 1 to 1000 do
    let x = Engine.Rng.int rng 7 in
    Alcotest.(check bool) "int in [0,7)" true (x >= 0 && x < 7);
    let y = Engine.Rng.int_in rng (-3) 3 in
    Alcotest.(check bool) "int_in [-3,3]" true (y >= -3 && y <= 3);
    let f = Engine.Rng.float rng 2.5 in
    Alcotest.(check bool) "float in [0,2.5)" true (f >= 0. && f < 2.5)
  done

let test_rng_moments () =
  let rng = Engine.Rng.create 5 in
  let n = 20_000 in
  let acc = Engine.Stats.Online.create () in
  for _ = 1 to n do
    Engine.Stats.Online.add acc (Engine.Rng.exponential rng ~mean:2.)
  done;
  Alcotest.(check bool) "exponential mean ~2" true
    (Float.abs (Engine.Stats.Online.mean acc -. 2.) < 0.1);
  let acc = Engine.Stats.Online.create () in
  for _ = 1 to n do
    Engine.Stats.Online.add acc (Engine.Rng.normal rng ~mu:5. ~sigma:1.)
  done;
  Alcotest.(check bool) "normal mean ~5" true
    (Float.abs (Engine.Stats.Online.mean acc -. 5.) < 0.05);
  Alcotest.(check bool) "normal sd ~1" true
    (Float.abs (Engine.Stats.Online.stddev acc -. 1.) < 0.05)

let test_rng_lognormal_median () =
  let rng = Engine.Rng.create 6 in
  let n = 20_001 in
  let xs =
    Array.init n (fun _ -> Engine.Rng.lognormal rng ~mu:(Float.log 10.) ~sigma:0.75)
  in
  let med = Engine.Stats.median xs in
  Alcotest.(check bool)
    (Printf.sprintf "lognormal median ~10 (got %.2f)" med)
    true
    (med > 9. && med < 11.)

let test_rng_shuffle_permutation () =
  let rng = Engine.Rng.create 7 in
  let arr = Array.init 50 (fun i -> i) in
  Engine.Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_pick_weighted () =
  let rng = Engine.Rng.create 8 in
  let counts = [| 0; 0 |] in
  for _ = 1 to 10_000 do
    let i = Engine.Rng.pick_weighted rng [| (0, 1.); (1, 9.) |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "weighted ratio ~9x" true (counts.(1) > 7 * counts.(0));
  Alcotest.check_raises "zero weights"
    (Invalid_argument "Rng.pick_weighted: zero total weight") (fun () ->
      ignore (Engine.Rng.pick_weighted rng [| ((), 0.) |]))

let test_rng_sample_without_replacement () =
  let rng = Engine.Rng.create 9 in
  let arr = Array.init 20 (fun i -> i) in
  let s = Engine.Rng.sample_without_replacement rng 8 arr in
  Alcotest.(check int) "size" 8 (Array.length s);
  let distinct = List.sort_uniq Int.compare (Array.to_list s) in
  Alcotest.(check int) "distinct" 8 (List.length distinct)

let prop_rng_int_unbiased =
  QCheck2.Test.make ~name:"Rng.int covers the whole range"
    QCheck2.Gen.(int_range 2 20)
    (fun bound ->
      let rng = Engine.Rng.create bound in
      let seen = Array.make bound false in
      for _ = 1 to bound * 200 do
        seen.(Engine.Rng.int rng bound) <- true
      done;
      Array.for_all Fun.id seen)

(* ------------------------------------------------------------------ *)
(* Event queue *)

let test_queue_ordering () =
  let q = Engine.Event_queue.create () in
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 3) "c");
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 1) "a");
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 2) "b");
  let order = List.init 3 (fun _ -> snd (Option.get (Engine.Event_queue.pop q))) in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] order

let test_queue_stability () =
  let q = Engine.Event_queue.create () in
  for i = 0 to 9 do
    ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 1) i)
  done;
  let order = List.init 10 (fun _ -> snd (Option.get (Engine.Event_queue.pop q))) in
  Alcotest.(check (list int)) "fifo at equal times" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] order

let test_queue_cancel () =
  let q = Engine.Event_queue.create () in
  let h1 = Engine.Event_queue.add q ~time:(Engine.Time.ms 1) "a" in
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 2) "b");
  Engine.Event_queue.cancel q h1;
  Alcotest.(check int) "size after cancel" 1 (Engine.Event_queue.size q);
  Alcotest.(check bool) "is_cancelled" true (Engine.Event_queue.is_cancelled q h1);
  Alcotest.(check (option string))
    "pop skips cancelled" (Some "b")
    (Option.map snd (Engine.Event_queue.pop q));
  Engine.Event_queue.cancel q h1;
  Alcotest.(check int) "size stable" 0 (Engine.Event_queue.size q)

let test_queue_cancel_after_fire () =
  let q = Engine.Event_queue.create () in
  let h = Engine.Event_queue.add q ~time:Engine.Time.zero "x" in
  ignore (Engine.Event_queue.pop q);
  Engine.Event_queue.cancel q h;
  Alcotest.(check int) "size not negative" 0 (Engine.Event_queue.size q);
  Alcotest.(check bool) "fired is not cancelled" false
    (Engine.Event_queue.is_cancelled q h)

let test_queue_peek_clear () =
  let q = Engine.Event_queue.create () in
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 5) ());
  Alcotest.(check (option time)) "peek" (Some (Engine.Time.ms 5))
    (Engine.Event_queue.peek_time q);
  Engine.Event_queue.clear q;
  Alcotest.(check bool) "empty" true (Engine.Event_queue.is_empty q)

let test_queue_clear_resets () =
  let q = Engine.Event_queue.create () in
  let h = Engine.Event_queue.add q ~time:(Engine.Time.ms 1) "old" in
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 2) "older");
  Engine.Event_queue.clear q;
  Alcotest.(check int) "size" 0 (Engine.Event_queue.size q);
  Alcotest.(check bool) "empty" true (Engine.Event_queue.is_empty q);
  (* A handle minted before the clear must be inert: cancelling it
     cannot drive the live count negative or disturb new entries. *)
  Engine.Event_queue.cancel q h;
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 5) "a");
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 5) "b");
  Engine.Event_queue.cancel q h;
  Alcotest.(check int) "stale cancel is a no-op" 2 (Engine.Event_queue.size q);
  (* next_seq restarts, so equal-time FIFO order holds after a clear. *)
  Alcotest.(check (list string)) "fifo after clear" [ "a"; "b" ]
    (List.init 2 (fun _ -> snd (Option.get (Engine.Event_queue.pop q))))

let test_queue_slots_released () =
  (* Popped and cleared entries must not pin their payloads: the heap
     array overwrites vacated slots with a dummy, so the only remaining
     reference is the caller's. *)
  let q = Engine.Event_queue.create () in
  let w = Weak.create 4 in
  for i = 0 to 3 do
    let payload = ref i in
    Weak.set w i (Some payload);
    ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms i) payload)
  done;
  ignore (Engine.Event_queue.pop q);
  ignore (Engine.Event_queue.pop q);
  Engine.Event_queue.clear q;
  Gc.full_major ();
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "payload %d collected" i)
      true
      (Weak.get w i = None)
  done

let test_queue_pop_before () =
  let q = Engine.Event_queue.create () in
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 1) "a");
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 5) "b");
  let none = "NONE" in
  Alcotest.(check string) "due event pops" "a"
    (Engine.Event_queue.pop_before q ~limit:(Engine.Time.ms 2) ~none);
  Alcotest.check time "popped_time stamped" (Engine.Time.ms 1)
    (Engine.Event_queue.popped_time q);
  (* Nothing due by the limit: the very sentinel comes back and the
     queue is untouched. *)
  Alcotest.(check bool) "sentinel returned physically" true
    (Engine.Event_queue.pop_before q ~limit:(Engine.Time.ms 2) ~none == none);
  Alcotest.(check int) "queue untouched" 1 (Engine.Event_queue.size q);
  Alcotest.(check string) "limit is inclusive" "b"
    (Engine.Event_queue.pop_before q ~limit:(Engine.Time.ms 5) ~none);
  Alcotest.check time "popped_time follows" (Engine.Time.ms 5)
    (Engine.Event_queue.popped_time q);
  Alcotest.(check bool) "empty queue returns sentinel" true
    (Engine.Event_queue.pop_before q ~limit:Engine.Time.max_value ~none == none)

let test_queue_pop_before_skips_cancelled () =
  let q = Engine.Event_queue.create () in
  let h = Engine.Event_queue.add q ~time:(Engine.Time.ms 1) "dead" in
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 2) "live");
  Engine.Event_queue.cancel q h;
  let none = "NONE" in
  Alcotest.(check string) "sweep discards cancelled head" "live"
    (Engine.Event_queue.pop_before q ~limit:(Engine.Time.ms 3) ~none);
  Alcotest.(check bool) "then empty" true (Engine.Event_queue.is_empty q)

let test_queue_seq_overflow_guarded () =
  let q = Engine.Event_queue.create () in
  ignore (Engine.Event_queue.add q ~time:Engine.Time.zero ());
  Engine.Event_queue.Private.set_next_seq q max_int;
  Alcotest.check_raises "add at the sequence ceiling"
    (Failure "Event_queue.add: insertion sequence exhausted (clear to reset)")
    (fun () -> ignore (Engine.Event_queue.add q ~time:Engine.Time.zero ()));
  (* [clear] resets the counter, so the queue is usable again. *)
  Engine.Event_queue.clear q;
  Alcotest.(check int) "clear resets next_seq" 0
    (Engine.Event_queue.Private.next_seq q);
  ignore (Engine.Event_queue.add q ~time:Engine.Time.zero ());
  Alcotest.(check int) "adds work after reset" 1 (Engine.Event_queue.size q)

let test_queue_live_bookkeeping () =
  (* [size] must track the live population exactly through interleaved
     cancels (including double cancels and cancels of fired events) and
     pops that sweep over cancelled entries. *)
  let q = Engine.Event_queue.create () in
  let hs = Array.init 20 (fun i -> Engine.Event_queue.add q ~time:(Engine.Time.ms i) i) in
  Array.iteri (fun i h -> if i mod 2 = 0 then Engine.Event_queue.cancel q h) hs;
  Alcotest.(check int) "size after cancelling evens" 10 (Engine.Event_queue.size q);
  Engine.Event_queue.cancel q hs.(0);
  Alcotest.(check int) "double cancel is a no-op" 10 (Engine.Event_queue.size q);
  let popped =
    List.init 5 (fun _ -> snd (Option.get (Engine.Event_queue.pop q)))
  in
  Alcotest.(check (list int)) "odd payloads surface in order" [ 1; 3; 5; 7; 9 ] popped;
  Alcotest.(check int) "size tracks pops" 5 (Engine.Event_queue.size q);
  Array.iter (fun h -> Engine.Event_queue.cancel q h) hs;
  Alcotest.(check int) "cancelling everything (incl. fired) empties" 0
    (Engine.Event_queue.size q);
  Alcotest.(check bool) "pop on all-cancelled queue" true
    (Engine.Event_queue.pop q = None);
  Alcotest.(check bool) "is_empty agrees" true (Engine.Event_queue.is_empty q)

let test_queue_wheel_horizons () =
  (* Deadlines on both sides of the wheel window (~16.8ms): short ones
     live in wheel slots, long ones in the overflow heap and must
     migrate into the wheel as the cursor approaches.  Order must come
     out globally sorted regardless of where each entry started. *)
  let q = Engine.Event_queue.create () in
  let deadlines = [ 3_600_000; 1; 17; 40_000; 250; 16; 999; 100_000; 2; 0 ] in
  List.iter
    (fun ms -> ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms ms) ms))
    deadlines;
  let drained =
    List.init (List.length deadlines) (fun _ ->
        snd (Option.get (Engine.Event_queue.pop q)))
  in
  Alcotest.(check (list int)) "drains sorted across horizons"
    (List.sort Int.compare deadlines) drained;
  Alcotest.(check bool) "empty at the end" true (Engine.Event_queue.is_empty q)

let prop_queue_sorted_drain =
  QCheck2.Test.make ~name:"event queue drains in nondecreasing time order"
    QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 1_000))
    (fun times ->
      let q = Engine.Event_queue.create () in
      List.iter
        (fun ms -> ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms ms) ms))
        times;
      let rec drain acc =
        match Engine.Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, _) -> drain (t :: acc)
      in
      let drained = drain [] in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> Engine.Time.(a <= b) && nondecreasing rest
        | _ -> true
      in
      List.length drained = List.length times && nondecreasing drained)

let prop_queue_matches_model =
  (* Random add/cancel/pop programs checked op-for-op against a naive
     list model ordered by (time, insertion sequence).  Times span the
     wheel window, so programs exercise slot insertion, the overflow
     heap, migration, and the lazy-deletion sweep together. *)
  QCheck2.Test.make ~name:"wheel agrees with a sorted-list model"
    QCheck2.Gen.(list_size (int_range 1 300) (pair (int_range 0 2) (int_range 0 100)))
    (fun ops ->
      let q = Engine.Event_queue.create () in
      (* Model: (time_ms, id) kept in insertion order; a stable sort by
         time therefore yields (time, seq) order.  Handles are kept
         forever so cancels can hit popped/cancelled entries too. *)
      let model = ref [] in
      let handles = ref [||] in
      let next_id = ref 0 in
      let ok = ref true in
      List.iter
        (fun (op, x) ->
          match op with
          | 0 ->
              let id = !next_id in
              incr next_id;
              let h = Engine.Event_queue.add q ~time:(Engine.Time.ms x) id in
              handles := Array.append !handles [| (h, id) |];
              model := !model @ [ (x, id) ]
          | 1 ->
              if Array.length !handles > 0 then begin
                let h, id = !handles.(x mod Array.length !handles) in
                Engine.Event_queue.cancel q h;
                model := List.filter (fun (_, i) -> i <> id) !model
              end
          | _ -> (
              let got = Engine.Event_queue.pop q in
              match
                List.stable_sort (fun (ta, _) (tb, _) -> Int.compare ta tb) !model
              with
              | [] -> if got <> None then ok := false
              | (t, id) :: _ -> (
                  model := List.filter (fun (_, i) -> i <> id) !model;
                  match got with
                  | Some (tq, idq)
                    when Engine.Time.equal tq (Engine.Time.ms t) && idq = id ->
                      ()
                  | _ -> ok := false)))
        ops;
      !ok && Engine.Event_queue.size q = List.length !model)

(* ------------------------------------------------------------------ *)
(* Sim *)

let test_sim_runs_in_order () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  ignore (Engine.Sim.schedule_at sim (Engine.Time.ms 2) (fun () -> log := 2 :: !log));
  ignore (Engine.Sim.schedule_at sim (Engine.Time.ms 1) (fun () -> log := 1 :: !log));
  Engine.Sim.run sim;
  Alcotest.(check (list int)) "order" [ 1; 2 ] (List.rev !log);
  Alcotest.check time "clock at last event" (Engine.Time.ms 2) (Engine.Sim.now sim);
  Alcotest.(check int) "events executed" 2 (Engine.Sim.events_executed sim)

let test_sim_schedule_past_rejected () =
  let sim = Engine.Sim.create () in
  let raised = ref false in
  ignore
    (Engine.Sim.schedule_at sim (Engine.Time.ms 5) (fun () ->
         try ignore (Engine.Sim.schedule_at sim (Engine.Time.ms 1) (fun () -> ()))
         with Invalid_argument _ -> raised := true));
  Engine.Sim.run sim;
  Alcotest.(check bool) "past rejected" true !raised

let test_sim_until () =
  let sim = Engine.Sim.create () in
  let ran = ref 0 in
  ignore (Engine.Sim.schedule_at sim (Engine.Time.ms 1) (fun () -> incr ran));
  ignore (Engine.Sim.schedule_at sim (Engine.Time.ms 10) (fun () -> incr ran));
  Engine.Sim.run sim ~until:(Engine.Time.ms 5);
  Alcotest.(check int) "one ran" 1 !ran;
  Alcotest.check time "clock at horizon" (Engine.Time.ms 5) (Engine.Sim.now sim);
  Alcotest.(check int) "pending" 1 (Engine.Sim.pending_events sim)

let test_sim_until_inclusive () =
  let sim = Engine.Sim.create () in
  let ran = ref false in
  ignore (Engine.Sim.schedule_at sim (Engine.Time.ms 5) (fun () -> ran := true));
  Engine.Sim.run sim ~until:(Engine.Time.ms 5);
  Alcotest.(check bool) "event at horizon runs" true !ran

let test_sim_stop () =
  let sim = Engine.Sim.create () in
  let ran = ref 0 in
  ignore
    (Engine.Sim.schedule_at sim (Engine.Time.ms 1) (fun () ->
         incr ran;
         Engine.Sim.stop sim));
  ignore (Engine.Sim.schedule_at sim (Engine.Time.ms 2) (fun () -> incr ran));
  Engine.Sim.run sim;
  Alcotest.(check int) "stopped after first" 1 !ran

let test_sim_cancel () =
  let sim = Engine.Sim.create () in
  let ran = ref false in
  let h = Engine.Sim.schedule_at sim (Engine.Time.ms 1) (fun () -> ran := true) in
  Engine.Sim.cancel sim h;
  Engine.Sim.run sim;
  Alcotest.(check bool) "cancelled never runs" false !ran

let test_sim_schedule_now_ordering () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  ignore
    (Engine.Sim.schedule_at sim (Engine.Time.ms 1) (fun () ->
         log := "first" :: !log;
         ignore (Engine.Sim.schedule_now sim (fun () -> log := "now" :: !log))));
  ignore (Engine.Sim.schedule_at sim (Engine.Time.ms 1) (fun () -> log := "second" :: !log));
  Engine.Sim.run sim;
  Alcotest.(check (list string)) "now runs after same-instant peers"
    [ "first"; "second"; "now" ] (List.rev !log)

let test_sim_every () =
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  Engine.Sim.every sim (Engine.Time.ms 10) (fun () -> incr count)
    ~stop:(fun () -> !count >= 3);
  Engine.Sim.run sim ~until:(Engine.Time.s 1);
  Alcotest.(check int) "fired until stop" 3 !count

let test_sim_every_stop_mid_period () =
  (* The stop flag flips between firings: the next due tick consumes
     its event, runs nothing, and disarms — no trailing tick remains
     pending afterwards. *)
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  let halt = ref false in
  Engine.Sim.every sim (Engine.Time.ms 10) (fun () -> incr count)
    ~stop:(fun () -> !halt);
  ignore (Engine.Sim.schedule_at sim (Engine.Time.ms 25) (fun () -> halt := true));
  Engine.Sim.run sim ~until:(Engine.Time.ms 200);
  Alcotest.(check int) "two ticks before the stop" 2 !count;
  Alcotest.(check int) "tick disarmed, nothing pending" 0
    (Engine.Sim.pending_events sim);
  Alcotest.check time "clock still reaches the horizon" (Engine.Time.ms 200)
    (Engine.Sim.now sim)

let test_sim_until_empty_queue () =
  (* [run ~until] on a simulation with no events still advances the
     clock to the horizon. *)
  let sim = Engine.Sim.create () in
  Engine.Sim.run sim ~until:(Engine.Time.ms 50);
  Alcotest.check time "clock at horizon" (Engine.Time.ms 50) (Engine.Sim.now sim);
  Alcotest.(check int) "nothing executed" 0 (Engine.Sim.events_executed sim)

let test_timer_lifecycle () =
  let sim = Engine.Sim.create () in
  let fired = ref [] in
  let tm = Engine.Sim.Timer.create sim (fun () -> fired := Engine.Sim.now sim :: !fired) in
  Alcotest.(check bool) "fresh timer unarmed" false (Engine.Sim.Timer.is_armed tm);
  Engine.Sim.Timer.arm_at sim tm (Engine.Time.ms 5);
  Alcotest.(check bool) "armed" true (Engine.Sim.Timer.is_armed tm);
  (* Rearming replaces the pending occurrence: only the new deadline
     fires. *)
  Engine.Sim.Timer.arm_at sim tm (Engine.Time.ms 2);
  Engine.Sim.run sim;
  Alcotest.(check (list time)) "rearm replaced the deadline" [ Engine.Time.ms 2 ]
    (List.rev !fired);
  Alcotest.(check bool) "unarmed after firing" false (Engine.Sim.Timer.is_armed tm);
  (* Disarm really unschedules. *)
  Engine.Sim.Timer.arm_after sim tm (Engine.Time.ms 3);
  Engine.Sim.Timer.cancel sim tm;
  Alcotest.(check bool) "disarmed" false (Engine.Sim.Timer.is_armed tm);
  Alcotest.(check int) "eager disarm leaves nothing pending" 0
    (Engine.Sim.pending_events sim);
  Engine.Sim.run sim;
  (* Arm far beyond the wheel window (overflow heap), rearm short: the
     short deadline wins. *)
  Engine.Sim.Timer.arm_after sim tm (Engine.Time.s 60);
  Engine.Sim.Timer.arm_after sim tm (Engine.Time.ms 1);
  Engine.Sim.run sim;
  Alcotest.(check (list time)) "heap-to-wheel rearm"
    [ Engine.Time.ms 2; Engine.Time.ms 3 ] (List.rev !fired)

let test_timer_past_rejected () =
  let sim = Engine.Sim.create () in
  let tm = Engine.Sim.Timer.create sim (fun () -> ()) in
  let raised = ref false in
  ignore
    (Engine.Sim.schedule_at sim (Engine.Time.ms 5) (fun () ->
         (try Engine.Sim.Timer.arm_at sim tm (Engine.Time.ms 1)
          with Invalid_argument _ -> raised := true);
         try Engine.Sim.Timer.arm_after sim tm (Engine.Time.ns (-1))
         with Invalid_argument _ -> ()));
  Engine.Sim.run sim;
  Alcotest.(check bool) "past arm rejected" true !raised;
  Alcotest.(check bool) "failed arms left the timer unarmed" false
    (Engine.Sim.Timer.is_armed tm)

let test_timer_rearm_seq_ordering () =
  (* Rearming takes a fresh insertion sequence number, exactly as
     cancel-then-add would: a one-shot scheduled for the same instant
     BEFORE the rearm runs first; the rearmed timer runs after it. *)
  let sim = Engine.Sim.create () in
  let log = ref [] in
  let tm = ref None in
  let timer =
    Engine.Sim.Timer.create sim (fun () ->
        log := "timer" :: !log;
        if Engine.Time.equal (Engine.Sim.now sim) (Engine.Time.ms 1) then begin
          ignore
            (Engine.Sim.schedule_at sim (Engine.Time.ms 2) (fun () ->
                 log := "oneshot" :: !log));
          Engine.Sim.Timer.arm_at sim (Option.get !tm) (Engine.Time.ms 2)
        end)
  in
  tm := Some timer;
  Engine.Sim.Timer.arm_at sim timer (Engine.Time.ms 1);
  Engine.Sim.run sim;
  Alcotest.(check (list string)) "rearm sequences after the earlier one-shot"
    [ "timer"; "oneshot"; "timer" ] (List.rev !log)

let test_sim_max_events () =
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  Engine.Sim.every sim (Engine.Time.ms 1) (fun () -> incr count) ~stop:(fun () -> false);
  Engine.Sim.run ~max_events:5 sim;
  Alcotest.(check bool) "bounded" true (!count <= 5)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_online_known () =
  let acc = Engine.Stats.Online.create () in
  List.iter (Engine.Stats.Online.add acc) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Engine.Stats.Online.count acc);
  Alcotest.(check (float 1e-9)) "mean" 5. (Engine.Stats.Online.mean acc);
  Alcotest.(check (float 1e-9)) "variance" (32. /. 7.) (Engine.Stats.Online.variance acc);
  Alcotest.(check (float 1e-9)) "min" 2. (Engine.Stats.Online.min acc);
  Alcotest.(check (float 1e-9)) "max" 9. (Engine.Stats.Online.max acc);
  Alcotest.(check (float 1e-9)) "sum" 40. (Engine.Stats.Online.sum acc)

let test_online_merge () =
  let a = Engine.Stats.Online.create () and b = Engine.Stats.Online.create () in
  let all = Engine.Stats.Online.create () in
  List.iter
    (fun x ->
      Engine.Stats.Online.add all x;
      if x < 5. then Engine.Stats.Online.add a x else Engine.Stats.Online.add b x)
    [ 1.; 2.; 3.; 6.; 7.; 8.; 9. ];
  let merged = Engine.Stats.Online.merge a b in
  Alcotest.(check (float 1e-9)) "merged mean" (Engine.Stats.Online.mean all)
    (Engine.Stats.Online.mean merged);
  Alcotest.(check (float 1e-9)) "merged var" (Engine.Stats.Online.variance all)
    (Engine.Stats.Online.variance merged)

let test_percentiles () =
  let xs = [| 15.; 20.; 35.; 40.; 50. |] in
  Alcotest.(check (float 1e-9)) "median" 35. (Engine.Stats.median xs);
  Alcotest.(check (float 1e-9)) "p0" 15. (Engine.Stats.percentile xs 0.);
  Alcotest.(check (float 1e-9)) "p100" 50. (Engine.Stats.percentile xs 100.);
  Alcotest.(check (float 1e-9)) "p25 interpolates" 20. (Engine.Stats.percentile xs 25.)

let test_cdf_points () =
  let pts = Engine.Stats.cdf_points [| 3.; 1.; 3.; 2. |] in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "steps"
    [ (1., 0.25); (2., 0.5); (3., 1.) ]
    pts

let test_histogram () =
  let h = Engine.Stats.Histogram.create ~bin_width:1. in
  List.iter (Engine.Stats.Histogram.add h) [ 0.1; 0.9; 1.5; 2.1; 2.2; 2.9 ];
  Alcotest.(check int) "count" 6 (Engine.Stats.Histogram.count h);
  Alcotest.(check (list (pair (float 1e-9) int)))
    "bins"
    [ (0., 2); (1., 1); (2., 3) ]
    (Engine.Stats.Histogram.bins h);
  Alcotest.(check (option (pair (float 1e-9) int)))
    "mode" (Some (2., 3))
    (Engine.Stats.Histogram.mode_bin h)

let test_samples_basic () =
  let s = Engine.Stats.Samples.create () in
  Alcotest.(check bool) "empty" true (Engine.Stats.Samples.is_empty s);
  List.iter (Engine.Stats.Samples.add s) [ 30.; 10.; 50. ];
  Alcotest.(check int) "length" 3 (Engine.Stats.Samples.length s);
  Alcotest.(check (float 1e-9)) "median" 30. (Engine.Stats.Samples.median s);
  Alcotest.(check (float 1e-9)) "p0" 10. (Engine.Stats.Samples.percentile s 0.);
  Alcotest.(check (float 1e-9)) "p100" 50. (Engine.Stats.Samples.percentile s 100.);
  Alcotest.(check (float 1e-9)) "mean" 30. (Engine.Stats.Samples.mean s);
  Alcotest.(check (float 1e-9)) "min" 10. (Engine.Stats.Samples.min s);
  Alcotest.(check (float 1e-9)) "max" 50. (Engine.Stats.Samples.max s);
  Alcotest.(check (array (float 1e-9))) "sorted view" [| 10.; 30.; 50. |]
    (Engine.Stats.Samples.sorted s);
  Alcotest.(check (array (float 1e-9))) "to_array keeps insertion order"
    [| 30.; 10.; 50. |] (Engine.Stats.Samples.to_array s)

let test_samples_cache_invalidation () =
  (* Query (populating the sorted cache), then add: the next query must
     see the new sample, not the stale cache. *)
  let s = Engine.Stats.Samples.of_array [| 30.; 10.; 50. |] in
  Alcotest.(check (float 1e-9)) "median before" 30. (Engine.Stats.Samples.median s);
  Engine.Stats.Samples.add s 20.;
  Alcotest.(check (float 1e-9)) "median after add" 25. (Engine.Stats.Samples.median s);
  Engine.Stats.Samples.add_all s [| 5.; 60. |];
  Alcotest.(check (float 1e-9)) "p0 after add_all" 5.
    (Engine.Stats.Samples.percentile s 0.);
  Alcotest.(check (float 1e-9)) "p100 after add_all" 60.
    (Engine.Stats.Samples.percentile s 100.);
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "cdf points see every sample"
    (Engine.Stats.cdf_points [| 30.; 10.; 50.; 20.; 5.; 60. |])
    (Engine.Stats.Samples.cdf_points s)

let prop_samples_match_array =
  QCheck2.Test.make ~name:"Samples.percentile matches array percentile"
    QCheck2.Gen.(
      pair (list_size (int_range 1 50) (float_range 0. 100.)) (int_range 0 100))
    (fun (xs, p) ->
      let s = Engine.Stats.Samples.of_array (Array.of_list xs) in
      Float.abs
        (Engine.Stats.Samples.percentile s (float_of_int p)
        -. Engine.Stats.percentile (Array.of_list xs) (float_of_int p))
      < 1e-9)

let prop_online_matches_direct =
  QCheck2.Test.make ~name:"Welford matches direct mean"
    QCheck2.Gen.(list_size (int_range 1 100) (float_range (-1000.) 1000.))
    (fun xs ->
      let acc = Engine.Stats.Online.create () in
      List.iter (Engine.Stats.Online.add acc) xs;
      let direct = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      Float.abs (Engine.Stats.Online.mean acc -. direct) < 1e-6)

let prop_cdf_monotone =
  QCheck2.Test.make ~name:"cdf points are monotone and end at 1"
    QCheck2.Gen.(list_size (int_range 1 100) (float_range 0. 100.))
    (fun xs ->
      let pts = Engine.Stats.cdf_points (Array.of_list xs) in
      let fracs = List.map snd pts in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      monotone fracs && Float.equal (List.nth fracs (List.length fracs - 1)) 1.)

(* ------------------------------------------------------------------ *)
(* Timeseries / Trace *)

let test_timeseries_basic () =
  let ts = Engine.Timeseries.create ~name:"t" () in
  Engine.Timeseries.record ts (Engine.Time.ms 1) 1.;
  Engine.Timeseries.record ts (Engine.Time.ms 3) 3.;
  Alcotest.(check int) "length" 2 (Engine.Timeseries.length ts);
  Alcotest.(check (option (float 1e-9))) "value_at before" None
    (Engine.Timeseries.value_at ts Engine.Time.zero);
  Alcotest.(check (option (float 1e-9))) "value_at step" (Some 1.)
    (Engine.Timeseries.value_at ts (Engine.Time.ms 2));
  Alcotest.(check (option (float 1e-9))) "value_at exact" (Some 3.)
    (Engine.Timeseries.value_at ts (Engine.Time.ms 3));
  Alcotest.(check (option (float 1e-9))) "max" (Some 3.)
    (Engine.Timeseries.max_value ts);
  Alcotest.(check (option time)) "time of max" (Some (Engine.Time.ms 3))
    (Engine.Timeseries.time_of_max ts)

let test_timeseries_backwards_rejected () =
  let ts = Engine.Timeseries.create () in
  Engine.Timeseries.record ts (Engine.Time.ms 2) 1.;
  Alcotest.check_raises "backwards"
    (Invalid_argument "Timeseries.record: time went backwards") (fun () ->
      Engine.Timeseries.record ts (Engine.Time.ms 1) 2.)

let test_timeseries_resample () =
  let ts = Engine.Timeseries.create () in
  Engine.Timeseries.record ts (Engine.Time.ms 5) 10.;
  Engine.Timeseries.record ts (Engine.Time.ms 15) 20.;
  let samples =
    Engine.Timeseries.resample ts ~step:(Engine.Time.ms 10) ~stop:(Engine.Time.ms 20)
  in
  Alcotest.(check int) "sample count" 3 (Array.length samples);
  Alcotest.(check (float 1e-9)) "before first repeats first" 10. (snd samples.(0));
  Alcotest.(check (float 1e-9)) "mid" 10. (snd samples.(1));
  Alcotest.(check (float 1e-9)) "after second" 20. (snd samples.(2))

let test_rng_pareto_scale () =
  let rng = Engine.Rng.create 10 in
  (* Pareto samples are never below the scale parameter. *)
  for _ = 1 to 1000 do
    Alcotest.(check bool) "above scale" true
      (Engine.Rng.pareto rng ~shape:2. ~scale:3. >= 3.)
  done

let test_every_invalid_period () =
  let sim = Engine.Sim.create () in
  Alcotest.check_raises "zero period" (Invalid_argument "Sim.every: period must be positive")
    (fun () -> Engine.Sim.every sim Engine.Time.zero (fun () -> ()) ~stop:(fun () -> true))

let test_histogram_negative_bins () =
  let h = Engine.Stats.Histogram.create ~bin_width:1. in
  Engine.Stats.Histogram.add h (-0.5);
  Engine.Stats.Histogram.add h 0.5;
  Alcotest.(check (list (pair (float 1e-9) int)))
    "negative bin kept separate"
    [ (-1., 1); (0., 1) ]
    (Engine.Stats.Histogram.bins h)

let test_negative_time_pp () =
  Alcotest.(check string) "sign rendered" "-2.50ms"
    (Engine.Time.to_string (Engine.Time.sub Engine.Time.zero (Engine.Time.us 2_500)))

let test_trace_registry () =
  let tr = Engine.Trace.create () in
  Engine.Trace.record tr "a/x" (Engine.Time.ms 1) 1.;
  Engine.Trace.record tr "b/y" (Engine.Time.ms 2) 2.;
  Engine.Trace.record tr "a/x" (Engine.Time.ms 3) 3.;
  Alcotest.(check (list string)) "keys sorted" [ "a/x"; "b/y" ] (Engine.Trace.keys tr);
  Alcotest.(check int) "series length" 2
    (Engine.Timeseries.length (Engine.Trace.series tr "a/x"));
  Alcotest.(check bool) "find missing" true (Engine.Trace.find tr "zzz" = None);
  let buf = Buffer.create 64 in
  Engine.Trace.to_csv tr buf;
  let csv = Buffer.contents buf in
  Alcotest.(check bool) "csv header" true
    (String.length csv > 0 && String.sub csv 0 19 = "series,time_s,value")

let test_trace_events () =
  let tr = Engine.Trace.create () in
  Alcotest.(check int) "empty" 0 (Engine.Trace.event_count tr);
  Engine.Trace.record_event tr Engine.Trace.Fault ~subject:"link/a" ~detail:"down"
    (Engine.Time.ms 10);
  Engine.Trace.record_event tr Engine.Trace.Recovery ~subject:"link/a" ~detail:"up"
    (Engine.Time.ms 30);
  Engine.Trace.record_event tr Engine.Trace.Abort ~subject:"xfer" (Engine.Time.ms 20);
  let evs = Engine.Trace.events tr in
  Alcotest.(check int) "count" 3 (Engine.Trace.event_count tr);
  Alcotest.(check (list string)) "insertion order preserved"
    [ "link/a"; "link/a"; "xfer" ]
    (List.map (fun e -> e.Engine.Trace.subject) evs);
  Alcotest.(check int) "filter by kind" 1
    (List.length (Engine.Trace.events_with tr Engine.Trace.Fault));
  Alcotest.(check string) "kind names" "fault,recovery,abort"
    (String.concat ","
       (List.map Engine.Trace.kind_to_string
          [ Engine.Trace.Fault; Engine.Trace.Recovery; Engine.Trace.Abort ]));
  let buf = Buffer.create 64 in
  Engine.Trace.events_to_csv tr buf;
  let lines = String.split_on_char '\n' (String.trim (Buffer.contents buf)) in
  Alcotest.(check int) "csv: header + one row per event" 4 (List.length lines);
  Alcotest.(check string) "csv header" "time_s,kind,subject,detail" (List.hd lines);
  Alcotest.(check string) "pp" "[10.00ms] fault link/a: down"
    (Format.asprintf "%a" Engine.Trace.pp_event (List.hd evs))

let test_trace_events_csv_roundtrip () =
  let tr = Engine.Trace.create () in
  let kinds =
    [ Engine.Trace.Fault; Engine.Trace.Recovery; Engine.Trace.Abort;
      Engine.Trace.Rebuild; Engine.Trace.Resume; Engine.Trace.Exhausted ]
  in
  List.iteri
    (fun i kind ->
      (* Details with commas must survive the round trip. *)
      Engine.Trace.record_event tr kind
        ~subject:(Printf.sprintf "s/%d" i)
        ~detail:(Printf.sprintf "detail %d, with, commas" i)
        (Engine.Time.ms (10 * (i + 1))))
    kinds;
  let buf = Buffer.create 256 in
  Engine.Trace.events_to_csv tr buf;
  let parsed = Engine.Trace.events_of_csv (Buffer.contents buf) in
  Alcotest.(check int) "all rows parsed" (List.length kinds) (List.length parsed);
  Alcotest.(check bool) "round trip is lossless" true
    (parsed = Engine.Trace.events tr);
  List.iter
    (fun kind ->
      let s = Engine.Trace.kind_to_string kind in
      Alcotest.(check bool) ("kind round trip: " ^ s) true
        (Engine.Trace.kind_of_string s = Some kind))
    kinds;
  Alcotest.(check bool) "unknown kind rejected" true
    (Engine.Trace.kind_of_string "bogus" = None);
  Alcotest.(check int) "garbage lines skipped" 0
    (List.length (Engine.Trace.events_of_csv "not,a,valid\nrow\n"))

(* ------------------------------------------------------------------ *)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_time_order; prop_time_add_sub; prop_transmission_additive;
      prop_rng_int_unbiased; prop_queue_sorted_drain; prop_queue_matches_model;
      prop_online_matches_direct; prop_cdf_monotone; prop_samples_match_array ]

let () =
  Alcotest.run "engine"
    [
      ( "time",
        [
          Alcotest.test_case "constructors" `Quick test_time_constructors;
          Alcotest.test_case "arithmetic" `Quick test_time_arithmetic;
          Alcotest.test_case "saturation" `Quick test_time_saturation;
          Alcotest.test_case "conversions" `Quick test_time_conversions;
          Alcotest.test_case "pretty printing" `Quick test_time_pp;
          Alcotest.test_case "negative pretty printing" `Quick test_negative_time_pp;
          Alcotest.test_case "invalid inputs" `Quick test_time_invalid;
        ] );
      ( "units",
        [
          Alcotest.test_case "rate constructors" `Quick test_rate_constructors;
          Alcotest.test_case "transmission time" `Quick test_transmission_time;
          Alcotest.test_case "transmission time of large sizes" `Quick
            test_transmission_time_large;
          Alcotest.test_case "bdp" `Quick test_bdp;
          Alcotest.test_case "sizes" `Quick test_sizes;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "moments" `Slow test_rng_moments;
          Alcotest.test_case "lognormal median" `Slow test_rng_lognormal_median;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "weighted pick" `Slow test_rng_pick_weighted;
          Alcotest.test_case "sample without replacement" `Quick
            test_rng_sample_without_replacement;
          Alcotest.test_case "pareto scale bound" `Quick test_rng_pareto_scale;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_queue_ordering;
          Alcotest.test_case "stability" `Quick test_queue_stability;
          Alcotest.test_case "cancel" `Quick test_queue_cancel;
          Alcotest.test_case "cancel after fire" `Quick test_queue_cancel_after_fire;
          Alcotest.test_case "peek and clear" `Quick test_queue_peek_clear;
          Alcotest.test_case "clear resets state" `Quick test_queue_clear_resets;
          Alcotest.test_case "slots released to the GC" `Quick
            test_queue_slots_released;
          Alcotest.test_case "pop_before" `Quick test_queue_pop_before;
          Alcotest.test_case "pop_before skips cancelled" `Quick
            test_queue_pop_before_skips_cancelled;
          Alcotest.test_case "sequence overflow guarded" `Quick
            test_queue_seq_overflow_guarded;
          Alcotest.test_case "live bookkeeping" `Quick test_queue_live_bookkeeping;
          Alcotest.test_case "wheel and heap horizons" `Quick
            test_queue_wheel_horizons;
        ] );
      ( "sim",
        [
          Alcotest.test_case "runs in order" `Quick test_sim_runs_in_order;
          Alcotest.test_case "rejects past" `Quick test_sim_schedule_past_rejected;
          Alcotest.test_case "until" `Quick test_sim_until;
          Alcotest.test_case "until inclusive" `Quick test_sim_until_inclusive;
          Alcotest.test_case "stop" `Quick test_sim_stop;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "schedule_now ordering" `Quick
            test_sim_schedule_now_ordering;
          Alcotest.test_case "every" `Quick test_sim_every;
          Alcotest.test_case "every invalid period" `Quick test_every_invalid_period;
          Alcotest.test_case "every stop mid-period" `Quick
            test_sim_every_stop_mid_period;
          Alcotest.test_case "until on empty queue" `Quick test_sim_until_empty_queue;
          Alcotest.test_case "max events" `Quick test_sim_max_events;
          Alcotest.test_case "timer lifecycle" `Quick test_timer_lifecycle;
          Alcotest.test_case "timer rejects past" `Quick test_timer_past_rejected;
          Alcotest.test_case "timer rearm ordering" `Quick
            test_timer_rearm_seq_ordering;
        ] );
      ( "stats",
        [
          Alcotest.test_case "online known values" `Quick test_online_known;
          Alcotest.test_case "online merge" `Quick test_online_merge;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "cdf points" `Quick test_cdf_points;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "histogram negative bins" `Quick
            test_histogram_negative_bins;
          Alcotest.test_case "samples basic" `Quick test_samples_basic;
          Alcotest.test_case "samples cache invalidation" `Quick
            test_samples_cache_invalidation;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "basic" `Quick test_timeseries_basic;
          Alcotest.test_case "rejects backwards" `Quick
            test_timeseries_backwards_rejected;
          Alcotest.test_case "resample" `Quick test_timeseries_resample;
          Alcotest.test_case "trace registry" `Quick test_trace_registry;
          Alcotest.test_case "trace events" `Quick test_trace_events;
          Alcotest.test_case "trace events csv round trip" `Quick
            test_trace_events_csv_roundtrip;
        ] );
      ("properties", qtests);
    ]
