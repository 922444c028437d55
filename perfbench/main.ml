(* The repository benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--scale full|small]

   With --trace 0 it times whole runs of workload W, each in a fresh
   process, for about S seconds and prints the end-to-end metrics
   (medians over the runs).  With --trace 1 it makes the traced run
   instead: a few workload runs plus one probe per layer, recorded as
   spans, and prints the per-layer metrics.  Every run's outputs are
   checked.  The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}; a full report and the
   spans go to .perfbench/.  See README.md. *)

type args = {
  workload : Spec.name;
  seed : int;
  seconds : float;
  trace : bool;
  scale : Spec.scale;
}

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2)
    fmt

let parse () =
  let flags = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace flags k v;
        go rest
    | [] -> ()
    | x :: _ -> die "unexpected argument %s" x
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k conv ~default =
    match Hashtbl.find_opt flags k with
    | None -> (
        match default with Some d -> d | None -> die "missing %s" k)
    | Some v -> (
        match conv v with Some x -> x | None -> die "bad value %s for %s" v k)
  in
  let workload = get "--workload" Spec.of_string ~default:None in
  let seed = get "--seed" int_of_string_opt ~default:None in
  let scale = get "--scale" Spec.scale_of_string ~default:(Some Spec.Full) in
  match Hashtbl.find_opt flags Sample.child_flag with
  | Some v -> (
      match Spec.variant_of_string v with
      | Some variant -> `Child (workload, seed, scale, variant)
      | None -> die "bad variant %s" v)
  | None ->
      let seconds =
        get "--seconds" (fun s -> Option.map float_of_int (int_of_string_opt s)) ~default:None
      in
      let trace =
        get "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None) ~default:None
      in
      `Bench { workload; seed; seconds; trace; scale }

let spawn a variant = Sample.spawn ~exe:Sys.executable_name a.workload ~scale:a.scale ~seed:a.seed variant

let outcome (s : Sample.t) =
  match s.outcome with Some o -> o | None -> failwith "workload run without an outcome"

let count (s : Sample.t) k = Option.value ~default:0. (List.assoc_opt k (outcome s).counts)
let ratio a b = if b = 0. then 0. else a /. b
let mib words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

(* Output checks: every run passes its own checks, the [runs] of the
   workload itself share one digest, and [variants] (other configs)
   only pass their own.  A run that fails its checks counts all of its
   operations as failed; a failed set-wide check fails them all. *)
let check_runs ?(extra = []) ?(variants = []) runs =
  let os = List.map outcome (runs @ variants) in
  let digests = List.sort_uniq compare (List.map (fun s -> (outcome s).digest) runs) in
  let set_problems =
    (if List.length digests > 1 then [ "runs of one seed gave different digests" ] else []) @ extra
  in
  let problems = List.concat_map (fun (o : Spec.outcome) -> o.problems) os @ set_problems in
  let attempted = List.fold_left (fun n (o : Spec.outcome) -> n + o.attempted) 0 os in
  let failed =
    if set_problems <> [] then attempted
    else
      List.fold_left
        (fun n (o : Spec.outcome) -> n + if o.problems <> [] then o.attempted else o.failed)
        0 os
  in
  (problems, attempted, failed)

(* [(name, unit, samples)] -> the metrics object, its lines for humans,
   and its report entries. *)
let metrics_json rows =
  Report.obj
    (List.map
       (fun (name, unit, xs) ->
         (name, Report.obj [ ("value", Report.num (Report.median xs)); ("unit", Report.str unit) ]))
       rows)

let print_rows rows =
  List.iter
    (fun (name, unit, xs) ->
      let q1, q3 = Report.quartiles xs in
      Printf.printf "%-32s %14.6g %-10s (q1 %.6g, q3 %.6g, n=%d)\n" name (Report.median xs) unit q1 q3
        (List.length xs))
    rows

let report_rows rows =
  Report.obj
    (List.map
       (fun (name, unit, xs) ->
         ( name,
           Report.obj
             [
               ("unit", Report.str unit);
               ("median", Report.num (Report.median xs));
               ("samples", Report.arr (List.map Report.num xs));
             ] ))
       rows)

let model_json (s : Sample.t) = Report.obj (List.map (fun (k, v) -> (k, Report.num v)) (outcome s).model)

let finish a ~kind ~rows ~problems ~attempted ~failed ~model ~notes ~extra_report =
  let correct = problems = [] in
  Printf.printf "# perfbench %s seed=%d %s (%s)\n" (Spec.to_string a.workload) a.seed kind
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) (Report.host ())));
  print_rows rows;
  Printf.printf "# simulated outputs (model, not metrics): %s\n" model;
  List.iter (fun n -> Printf.printf "# %s\n" n) notes;
  List.iter (fun p -> Printf.printf "# CHECK FAILED: %s\n" p) problems;
  let path =
    Report.write
      (Printf.sprintf "report-%s-seed%d-%s.json" (Spec.to_string a.workload) a.seed kind)
      (Report.obj
         ([
            ("workload", Report.str (Spec.to_string a.workload));
            ("seed", string_of_int a.seed);
            ("kind", Report.str kind);
            ("host", Report.obj (Report.host ()));
            ("correct", string_of_bool correct);
            ("attempted", string_of_int attempted);
            ("failed", string_of_int failed);
            ("problems", Report.arr (List.map Report.str problems));
            ("notes", Report.arr (List.map Report.str notes));
            ("model_outputs", model);
            ("metrics", report_rows rows);
          ]
         @ extra_report)
      ^ "\n")
  in
  Printf.printf "# report: %s\n" path;
  print_endline
    (Report.obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", metrics_json rows);
       ])

(* --trace 0: whole runs until the time is up (at least [min_runs]),
   each lap a set-up and then a run, so that set-ups and runs sample
   the same stretch of host time; then set-ups up to [min_setups].
   On a host with two cores or more, a one-domain workload runs two
   copies at once in every lap, set-ups too: every workload then keeps
   two cores busy throughout, and each copy is one sample.  Medians of
   everything. *)
let timed a =
  let start = Unix.gettimeofday () in
  let min_setups, min_runs = match a.scale with Full -> (9, 3) | Small -> (3, 2) in
  let cores = Domain.recommended_domain_count () in
  let copies = Stdlib.max 1 (Stdlib.min 2 cores / Spec.domains a.workload) in
  let spawn variant =
    Sample.spawn_copies ~copies ~exe:Sys.executable_name a.workload ~scale:a.scale ~seed:a.seed variant
  in
  let setups () = List.map (fun (s : Sample.t) -> s.wall_s) (spawn Spec.Setup) in
  let rec loop setup runs laps =
    let elapsed = Unix.gettimeofday () -. start in
    if List.length runs >= min_runs && elapsed +. Report.median laps > a.seconds then (setup, runs)
    else
      let t0 = Unix.gettimeofday () in
      let setup = setup @ setups () in
      let runs = runs @ spawn Spec.Main in
      loop setup runs ((Unix.gettimeofday () -. t0) :: laps)
  in
  let rec top_up setup = if List.length setup >= min_setups then setup else top_up (setup @ setups ()) in
  let setup, runs = loop [] [] [] in
  let setup = top_up setup in
  let per f = List.map f runs in
  let cells (s : Sample.t) = float_of_int (outcome s).cells in
  let rows =
    [
      ("wall_s", "s", per (fun s -> s.wall_s));
      ("cells_per_s", "cells/s", per (fun s -> cells s /. s.wall_s));
      ("cpu_s", "s", per (fun s -> s.cpu_s));
      ("setup_s", "s", setup);
      ("minor_words_per_cell", "words/cell", per (fun s -> ratio s.minor_words (cells s)));
      ("peak_heap_mib", "MiB", per (fun s -> mib s.top_heap_words));
    ]
  in
  let problems, attempted, failed = check_runs runs in
  finish a ~kind:"timed" ~rows ~problems ~attempted ~failed ~model:(model_json (List.hd runs))
    ~notes:
      [
        Printf.sprintf "%d timed runs, %d set-ups of %d builds each, each in a fresh process, %d at once"
          (List.length runs) (List.length setup) Sample.setup_builds copies;
      ]
    ~extra_report:[]

(* --trace 1: untraced runs for the baseline, one traced run, the
   variants the layer ratios need, and one probe per layer, all inside
   the root span.  Returns the report, to print once the spans file is
   written. *)
let traced a =
  let w = a.workload in
  let small = a.scale = Spec.Small in
  let net = w <> Spec.Star_f1c in
  let shards = Spec.domains w in
  let cores = Domain.recommended_domain_count () in
  Spans.within "traced-run" @@ fun _ ->
  let setup =
    Report.median (Spans.within "setup" (fun _ -> List.init 3 (fun _ -> (spawn a Spec.Setup).wall_s)))
  in
  let untraced = Spans.within "untraced" (fun _ -> List.init 2 (fun _ -> spawn a Spec.Main)) in
  let base_wall = Report.median (List.map (fun (s : Sample.t) -> s.wall_s) untraced) in
  let base_cpu = Report.median (List.map (fun (s : Sample.t) -> s.cpu_s) untraced) in
  let tr =
    Spans.within "workload" (fun id ->
        let s = spawn a Spec.Main in
        Spans.record ~parent:id "workload.run" ~start:s.started_at ~stop:(s.started_at +. s.wall_s);
        s)
  in
  (* What the traced harness adds around one run of the workload:
     spawning the child, marshalling its result back and recording the
     spans.  The library code records no spans, so nothing inside the
     run shows here. *)
  let trace_overhead = Spans.duration "workload" -. tr.wall_s in
  let variant v = Spans.within ("workload." ^ Spec.variant_to_string v) (fun _ -> spawn a v) in
  let shards1 = if net then Some (variant (Spec.Shards 1)) else None in
  let nochurn = if w = Churn_sharded then Some (variant Spec.No_churn) else None in
  (* Each probe's figure is the median of three repetitions. *)
  let probe name f = Spans.within name (fun _ -> Probe.median_cost ~reps:3 f) in
  let mix =
    if w = Star_f1c then
      Some
        (Spans.within "layer.sched.star_mix" (fun _ ->
             Probe.star_mix ~seed:a.seed ~circuits:(if small then 2 else 16)))
    else None
  in
  let events = if small then 100_000 else 400_000 in
  let sched = probe "layer.sched" (fun () -> Probe.sched w ~seed:a.seed ~scale:a.scale ?mix ~events ()) in
  let transfers = if small then 10 else 100 in
  let ctrl =
    probe "layer.ctrl" (fun () -> Probe.ctrl Circuitstart.Controller.Circuit_start ~seed:a.seed ~transfers)
  in
  let ctrl_pr =
    probe "layer.ctrl.pr" (fun () -> Probe.ctrl Circuitstart.Controller.Predictive ~seed:a.seed ~transfers)
  in
  let hop_transfers = if small then 3 else 24 in
  let hop = Spans.within "layer.hop" (fun _ -> Probe.hop ~seed:a.seed ~transfers:hop_transfers) in
  let barrier = probe "layer.shard.barrier" (fun () -> Probe.barrier ~runs:(if small then 1_000 else 7_000)) in
  let population =
    probe "layer.setup.population" (fun () ->
        Probe.time_ops (fun () ->
            Spec.population w ~scale:a.scale ~seed:a.seed ();
            1))
  in
  let c = count tr in
  let rounds = c "rounds" in
  let wall_of = Option.map (fun (s : Sample.t) -> s.wall_s) in
  (* The star's derived counts rest on this accounting: each hop sends
     each cell once, plus at most one duplicate per downstream hop for
     each spurious retransmission; feedback matches every transmission
     at most once and every first one exactly once. *)
  let hop_expected = 4 * hop_transfers * Spec.cells_of_bytes (Engine.Units.kib Spec.star_kib) in
  let extra =
    (if
       hop.sent < hop_expected
       || hop.sent > hop_expected + (3 * hop.retransmissions)
       || hop.feedbacks < hop.sent
       || hop.feedbacks > hop.sent + hop.retransmissions
     then
       [
         Printf.sprintf "hop probe: %d first transmissions (expected %d), %d feedbacks, %d retransmissions"
           hop.sent hop_expected hop.feedbacks hop.retransmissions;
       ]
     else [])
    @
    match (w, shards1) with
    | Churn_sharded, Some s1 when (outcome s1).digest <> (outcome tr).digest ->
        [ "churn-sharded: shards=2 and shards=1 digests differ" ]
    | _ -> []
  in
  let rows =
    [
      ("sched.events", "count", c "events");
      ("sched.ns_per_event", "ns", sched.ns_per_op);
      ("sched.minor_words_per_event", "words", sched.words_per_op);
      ("sched.share", "ratio", ratio (sched.ns_per_op *. c "events" *. 1e-9) (base_wall *. float_of_int shards));
      ("ctrl.feedbacks", "count", c "feedbacks");
      ("ctrl.ns_per_feedback", "ns", ctrl.ns_per_op);
      ("ctrl.minor_words_per_feedback", "words", ctrl.words_per_op);
      ("ctrl.pr.ns_per_feedback", "ns", ctrl_pr.ns_per_op);
      ("hop.cell_hops", "count", c "cell_hops");
      ("hop.ns_per_cell_hop", "ns", hop.cost.ns_per_op);
      ("hop.minor_words_per_cell_hop", "words", hop.cost.words_per_op);
      ("hop.retransmit_share", "ratio", ratio (c "retransmissions") (c "cell_hops"));
      ("hop.queue_hwm_kib", "KiB", c "queue_hwm_bytes" /. 1024.);
      ("round.rounds", "count", rounds);
      ("round.ns_per_round", "ns", ratio ((tr.wall_s -. setup) *. 1e9) rounds);
      ("round.minor_words_per_round", "words", ratio tr.minor_words rounds);
      ("round.cells_per_round", "cells", ratio (float_of_int (outcome tr).cells) rounds);
      ("round.pool_recycle_share", "ratio", ratio (c "pool_recycles") (c "arrivals"));
      ( "round.admission_redraw_share",
        "ratio",
        ratio (c "admission_redraws") (c "arrivals" +. c "refused_arrivals") );
      ("churn.kills", "count", c "kills");
      ("churn.gone_draws", "count", c "gone_draws");
      ("churn.resumed_share", "ratio", ratio (c "resumed") (c "kills"));
      ("churn.draining_refusals", "count", c "draining_refusals");
      ("churn.overhead_s", "s", match wall_of nochurn with Some t -> base_wall -. t | None -> 0.);
      ("shard.barrier_ns", "ns", barrier.ns_per_op);
      ("shard.busy_share", "ratio", ratio base_cpu (base_wall *. float_of_int shards));
      ( "shard.speedup_2",
        "ratio",
        match (w, wall_of shards1) with
        | Churn_sharded, Some t when cores >= 2 -> ratio t base_wall
        | _ -> 0. );
      ( "shard.single_domain_overhead",
        "ratio",
        match (w, wall_of shards1) with Consensus, Some t -> ratio t base_wall | _ -> 0. );
      ("setup.population_s", "s", population.ns_per_op *. 1e-9);
      ("gc.minor_collections", "count", float_of_int tr.minor_gcs);
      ("gc.major_collections", "count", float_of_int tr.major_gcs);
      ("trace.overhead_s", "s", trace_overhead);
    ]
    |> List.map (fun (name, unit, x) -> (name, unit, [ x ]))
  in
  let idle =
    match w with
    | Star_f1c -> [ "round.*"; "churn.*"; "shard.speedup_2"; "shard.single_domain_overhead" ]
    | Consensus ->
        [ "ctrl.feedbacks"; "hop.cell_hops"; "hop.retransmit_share"; "hop.queue_hwm_kib"; "churn.*"; "shard.speedup_2" ]
    | Churn_sharded ->
        [ "ctrl.feedbacks"; "hop.cell_hops"; "hop.retransmit_share"; "hop.queue_hwm_kib"; "shard.single_domain_overhead" ]
  in
  let unmeasured = if w = Churn_sharded && cores < 2 then [ "shard.speedup_2" ] else [] in
  let problems, attempted, failed =
    check_runs ~extra ~variants:(Option.to_list shards1 @ Option.to_list nochurn) (untraced @ [ tr ])
  in
  let sched_mix =
    match mix with
    | None -> []
    | Some m ->
        let q1, q3 = Report.quartiles (Array.to_list m.gaps) in
        [
          ( Printf.sprintf
              "star scheduler mix, measured on %d circuits: %.2f pending timers and %.3f ms mean delay per \
               circuit; firing gaps median %.3f us (q1 %.3f, q3 %.3f); the probe runs %d timers"
              m.circuits m.timers_per_circuit (m.mean_delay *. 1e3)
              (Report.median (Array.to_list m.gaps) *. 1e6) (q1 *. 1e6) (q3 *. 1e6)
              (Probe.sched_geometry w ~scale:a.scale ~mix:m ()).timers,
            Report.obj
              [
                ("circuits", string_of_int m.circuits);
                ("timers_per_circuit", Report.num m.timers_per_circuit);
                ("mean_delay_s", Report.num m.mean_delay);
                ("gap_median_s", Report.num (Report.median (Array.to_list m.gaps)));
                ("gap_q1_s", Report.num q1);
                ("gap_q3_s", Report.num q3);
              ] );
        ]
  in
  (* Report once the root span has closed and the spans are written. *)
  fun spans ->
  finish a ~kind:"traced" ~rows ~problems ~attempted ~failed ~model:(model_json tr)
    ~notes:
      ([
         Printf.sprintf "tracing overhead: %.6f s (traced workload span minus the run's own wall_s)"
           trace_overhead;
         "idle on this workload (reported as 0): " ^ String.concat ", " idle;
         "spans: " ^ spans;
       ]
      @ List.map fst sched_mix
      @ List.map (fun m -> m ^ ": unmeasured on a host with fewer than 2 cores (reported as 0)") unmeasured)
    ~extra_report:
      ([
         ("idle", Report.arr (List.map Report.str idle));
         ("unmeasured", Report.arr (List.map Report.str unmeasured));
       ]
      @ List.map (fun (_, j) -> ("star_sched_mix", j)) sched_mix)

let () =
  match parse () with
  | `Child (workload, seed, scale, variant) -> Sample.serve ~workload ~scale ~seed ~variant
  | `Bench a when a.trace ->
      let report = traced a in
      report (Report.write (Printf.sprintf "spans-%s-seed%d.json" (Spec.to_string a.workload) a.seed) (Spans.to_json ()))
  | `Bench a -> timed a
