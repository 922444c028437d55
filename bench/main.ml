(* Reproduction harness: one entry per figure panel and table of the
   paper's evaluation (DESIGN.md section 2), each printing the series or
   rows it regenerates and writing CSV next to the terminal rendering.

   Every independent simulation inside a target runs on the domain pool
   (Engine.Pool); rendering stays sequential and in a fixed order, so
   the terminal/CSV output is byte-identical for every --jobs value.
   The driver times each target, probes sequential-vs-parallel speedup
   on a batch of small star runs, and records both in BENCH_pr2.json.

   Usage:
     bench/main.exe                 run every figure and table
     bench/main.exe fig1a table-gamma ...
                                    run a subset
     bench/main.exe --jobs N        worker domains for simulation
                                    batches (default: detected cores)
     bench/main.exe --micro         additionally run Bechamel
                                    micro-benchmarks
     bench/main.exe --out DIR       CSV output directory (default
                                    results/)
     bench/main.exe --bench-json F  timing report path (default
                                    BENCH_pr2.json) *)

let out_dir = ref "results"
let jobs = ref (Engine.Pool.default_jobs ())
let bench_json = ref "BENCH_pr2.json"

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

let write_csv name contents =
  let path = Filename.concat !out_dir name in
  Analysis.Csv_out.write_file ~path contents;
  Printf.printf "[csv] %s\n" path

(* Simulated events executed by the current target — each batch helper
   below adds its runs' counts, and the driver snapshots the sum per
   target for the events/sec column of the timing report. *)
let sim_events = ref 0
let note_events n = sim_events := !sim_events + n

let trace_many configs =
  let rs = Workload.Trace_experiment.run_many ~jobs:!jobs configs in
  List.iter
    (fun (r : Workload.Trace_experiment.result) -> note_events r.wall_events)
    rs;
  rs

let star_many configs =
  let rs = Workload.Star_experiment.run_many ~jobs:!jobs configs in
  List.iter
    (fun (r : Workload.Star_experiment.result) -> note_events r.wall_events)
    rs;
  rs

let fault_many tasks =
  let rs = Workload.Fault_experiment.run_many ~jobs:!jobs tasks in
  List.iter
    (fun (r : Workload.Fault_experiment.result) -> note_events r.wall_events)
    rs;
  rs

let adaptive_many configs =
  let rs = Workload.Adaptive_experiment.run_many ~jobs:!jobs configs in
  List.iter
    (fun (r : Workload.Adaptive_experiment.result) -> note_events r.wall_events)
    rs;
  rs

let contention_many configs =
  let rs = Workload.Contention_experiment.run_many ~jobs:!jobs configs in
  List.iter
    (fun (r : Workload.Contention_experiment.result) -> note_events r.wall_events)
    rs;
  rs

(* ------------------------------------------------------------------ *)
(* Figure 1, upper panels: source cwnd traces *)

let cell_wire_size = Backtap.Wire.cell_size

let trace_config ~strategy ~distance =
  { Workload.Trace_experiment.default_config with
    Workload.Trace_experiment.strategy;
    bottleneck_distance = distance;
  }

let kb = Analysis.Series.kb_of_cells ~cell_size:cell_wire_size

let fig1_panel ~name ~distance () =
  section
    (Printf.sprintf "Figure 1 (%s): source cwnd, distance to bottleneck: %d hop%s" name
       distance
       (if distance = 1 then "" else "s"));
  let r =
    Workload.Trace_experiment.run
      (trace_config ~strategy:Circuitstart.Controller.Circuit_start ~distance)
  in
  note_events r.wall_events;
  let x_max = 600. in
  (* Resample the change points into a step function so the staircase
     of doubling rounds is visible in the plot. *)
  let series =
    let points = r.source_cwnd in
    let n = 120 in
    Array.init (n + 1) (fun i ->
        let x = float_of_int i *. x_max /. float_of_int n in
        let v =
          Array.fold_left
            (fun acc (t, v) -> if Analysis.Series.ms_of_time t <= x then v else acc)
            (match points with [||] -> 0. | _ -> snd points.(0))
            points
        in
        (x, kb v))
  in
  let optimal = kb (float_of_int r.optimal_source_cells) in
  let dashed = Analysis.Series.constant ~x_max ~step:25. optimal in
  print_string
    (Analysis.Ascii_plot.render ~x_label:"time [ms]" ~y_label:"source cwnd [KB]"
       [
         { Analysis.Ascii_plot.label = "CircuitStart source cwnd"; glyph = '*';
           points = series };
         { Analysis.Ascii_plot.label = "optimal (model)"; glyph = '-'; points = dashed };
       ]);
  Printf.printf
    "optimal=%0.1fKB (%d cells)  peak=%0.1fKB  settled=%0.1fKB  exit->%s cells  ttlb=%s\n"
    optimal r.optimal_source_cells (kb r.peak_cells) (kb r.settled_cells)
    (match r.exit_cells with Some c -> string_of_int c | None -> "-")
    (match r.time_to_last_byte with
    | Some t -> Printf.sprintf "%.3fs" (Engine.Time.to_sec_f t)
    | None -> "incomplete");
  write_csv
    (Printf.sprintf "%s_cwnd.csv" name)
    (Analysis.Csv_out.series_csv [ ("cwnd_kb", series); ("optimal_kb", dashed) ]);
  write_csv
    (Printf.sprintf "%s_cwnd.gp" name)
    (Analysis.Gnuplot.series_script
       ~csv_file:(Printf.sprintf "%s_cwnd.csv" name)
       ~title:
         (Printf.sprintf "CircuitStart source cwnd, bottleneck %d hop(s) away" distance)
       ~x_label:"time [ms]" ~y_label:"source cwnd [KB]"
       ~series:[ "cwnd_kb"; "optimal_kb" ])

let fig1a () = fig1_panel ~name:"fig1a" ~distance:1 ()
let fig1b () = fig1_panel ~name:"fig1b" ~distance:3 ()

(* ------------------------------------------------------------------ *)
(* Figure 1, bottom panel: TTLB CDF with vs without CircuitStart *)

let star_config transport =
  { Workload.Star_experiment.default_config with Workload.Star_experiment.transport }

let fig1c () =
  section "Figure 1 (fig1c): CDF of time to last byte, 50 concurrent circuits";
  let cs, ss =
    match
      star_many
        [
          star_config
            (Workload.Star_experiment.Backtap Circuitstart.Controller.Circuit_start);
          star_config
            (Workload.Star_experiment.Backtap Circuitstart.Controller.Slow_start);
        ]
    with
    | [ cs; ss ] -> (cs, ss)
    | _ -> assert false
  in
  let cdf_cs = Analysis.Cdf.of_samples cs.ttlb_seconds in
  let cdf_ss = Analysis.Cdf.of_samples ss.ttlb_seconds in
  let to_series cdf = Array.of_list (Analysis.Cdf.points cdf) in
  print_string
    (Analysis.Ascii_plot.render ~x_label:"time to last byte [s]"
       ~y_label:"cumulative distribution"
       [
         { Analysis.Ascii_plot.label = "with CircuitStart"; glyph = '*';
           points = to_series cdf_cs };
         { Analysis.Ascii_plot.label = "without CircuitStart (slow start)"; glyph = 'o';
           points = to_series cdf_ss };
       ]);
  Printf.printf "completed: with=%d/%d without=%d/%d\n" cs.completed cs.total ss.completed
    ss.total;
  Printf.printf "median: with=%.2fs without=%.2fs   p90: with=%.2fs without=%.2fs\n"
    (Analysis.Cdf.quantile cdf_cs 0.5)
    (Analysis.Cdf.quantile cdf_ss 0.5)
    (Analysis.Cdf.quantile cdf_cs 0.9)
    (Analysis.Cdf.quantile cdf_ss 0.9);
  Printf.printf
    "largest horizontal gap (CircuitStart earlier by): %.3fs   (paper: up to ~0.5s)\n"
    (Analysis.Cdf.horizontal_gap ~better:cdf_cs ~worse:cdf_ss);
  write_csv "fig1c_cdf.csv"
    (Analysis.Csv_out.cdf_csv
       [ ("with_circuitstart", cdf_cs); ("without_circuitstart", cdf_ss) ]);
  write_csv "fig1c_cdf.gp"
    (Analysis.Gnuplot.cdf_script ~csv_file:"fig1c_cdf.csv"
       ~title:"Time to last byte, 50 concurrent circuits"
       ~x_label:"time to last byte [s]"
       ~series:[ "with_circuitstart"; "without_circuitstart" ])

(* ------------------------------------------------------------------ *)
(* T1: startup-scheme comparison (extra table) *)

let table_startup () =
  section "Table T1 (extra): transport comparison on the 50-circuit star";
  let t =
    Analysis.Table.create
      ~columns:
        [ "transport"; "done"; "median TTLB"; "p90 TTLB"; "cell lat (mean/max)";
          "max queue"; "Jain"; "retx" ]
  in
  let transports =
    [
      ("circuitstart", Workload.Star_experiment.Backtap Circuitstart.Controller.Circuit_start);
      ("slowstart", Workload.Star_experiment.Backtap Circuitstart.Controller.Slow_start);
      ("sendme", Workload.Star_experiment.Legacy_sendme);
    ]
  in
  let results = star_many (List.map (fun (_, tr) -> star_config tr) transports) in
  List.iter2
    (fun (name, _) (r : Workload.Star_experiment.result) ->
      let cdf = Analysis.Cdf.of_samples r.ttlb_seconds in
      let retx =
        List.fold_left
          (fun acc (o : Workload.Star_experiment.circuit_outcome) ->
            acc + o.retransmissions)
          0 r.outcomes
      in
      let jain =
        Analysis.Fairness.jain_index
          (Analysis.Fairness.throughputs_bytes_per_sec
             ~bytes_each:Workload.Star_experiment.default_config.transfer_bytes
             r.ttlb_seconds)
      in
      Analysis.Table.add_row t
        [
          name;
          Printf.sprintf "%d/%d" r.completed r.total;
          Printf.sprintf "%.2fs" (Analysis.Cdf.quantile cdf 0.5);
          Printf.sprintf "%.2fs" (Analysis.Cdf.quantile cdf 0.9);
          Printf.sprintf "%.0f/%.0fms"
            (Engine.Stats.Online.mean r.cell_latency *. 1e3)
            (Engine.Stats.Online.max r.cell_latency *. 1e3);
          Format.asprintf "%a" Engine.Units.pp_bytes r.max_link_queue_bytes;
          Printf.sprintf "%.3f" jain;
          string_of_int retx;
        ])
    transports results;
  print_string (Analysis.Table.render t);
  print_string
    "(SENDME wins raw bulk TTLB by dumping its whole end-to-end window into\n\
     relay queues - the 'max queue' column is the bufferbloat the tailored\n\
     transports exist to avoid.)\n"

(* ------------------------------------------------------------------ *)
(* T2: gamma ablation *)

let table_gamma () =
  section "Table T2 (extra): gamma ablation (trace, distance 2)";
  let t =
    Analysis.Table.create
      ~columns:[ "gamma"; "peak cells"; "exit cells"; "settled"; "|err| vs opt"; "ttlb" ]
  in
  let gammas = [ 1.; 2.; 4.; 8.; 16. ] in
  let results =
    trace_many
      (List.map
         (fun gamma ->
           { (trace_config ~strategy:Circuitstart.Controller.Circuit_start ~distance:2) with
             Workload.Trace_experiment.params =
               Circuitstart.Params.with_gamma Circuitstart.Params.default gamma;
           })
         gammas)
  in
  List.iter2
    (fun gamma (r : Workload.Trace_experiment.result) ->
      Analysis.Table.add_row t
        [
          Printf.sprintf "%.0f" gamma;
          Printf.sprintf "%.0f" r.peak_cells;
          (match r.exit_cells with Some c -> string_of_int c | None -> "-");
          Printf.sprintf "%.0f" r.settled_cells;
          Printf.sprintf "%.0f" (Float.abs (r.settled_cells -. float_of_int r.optimal_source_cells));
          (match r.time_to_last_byte with
          | Some x -> Printf.sprintf "%.3fs" (Engine.Time.to_sec_f x)
          | None -> "-");
        ])
    gammas results;
  print_string (Analysis.Table.render t)

(* ------------------------------------------------------------------ *)
(* T3: bottleneck-distance sweep *)

let table_distance () =
  section "Table T3 (extra): bottleneck distance sweep (4-relay circuit)";
  let t =
    Analysis.Table.create
      ~columns:
        [ "distance"; "scheme"; "peak"; "peak/opt"; "settled"; "|err|"; "ttlb" ]
  in
  let cases =
    List.concat_map
      (fun distance ->
        List.map
          (fun (name, strategy) -> (distance, name, strategy))
          [ ("circuitstart", Circuitstart.Controller.Circuit_start);
            ("slowstart", Circuitstart.Controller.Slow_start) ])
      [ 1; 2; 3; 4 ]
  in
  let results =
    trace_many
      (List.map
         (fun (distance, _, strategy) ->
           { (trace_config ~strategy ~distance) with
             Workload.Trace_experiment.relay_count = 4;
           })
         cases)
  in
  List.iter2
    (fun (distance, name, _) (r : Workload.Trace_experiment.result) ->
      let opt = float_of_int r.optimal_source_cells in
      Analysis.Table.add_row t
        [
          string_of_int distance;
          name;
          Printf.sprintf "%.0f" r.peak_cells;
          Printf.sprintf "%.1fx" (r.peak_cells /. opt);
          Printf.sprintf "%.0f" r.settled_cells;
          Printf.sprintf "%.0f" (Float.abs (r.settled_cells -. opt));
          (match r.time_to_last_byte with
          | Some x -> Printf.sprintf "%.3fs" (Engine.Time.to_sec_f x)
          | None -> "-");
        ])
    cases results;
  print_string (Analysis.Table.render t)

(* ------------------------------------------------------------------ *)
(* T4: optimal-model accuracy *)

let table_optmodel () =
  section "Table T4 (extra): analytic optimum vs settled window";
  let t =
    Analysis.Table.create
      ~columns:[ "bottleneck"; "model W* (cells)"; "settled"; "settled/W*" ]
  in
  let mbits = [ 1; 2; 3; 5; 8; 12 ] in
  let results =
    trace_many
      (List.map
         (fun mbit ->
           { (trace_config ~strategy:Circuitstart.Controller.Circuit_start ~distance:2) with
             Workload.Trace_experiment.bottleneck_rate = Engine.Units.Rate.mbit mbit;
             (* Large enough that the window converges before the data
                runs out even at the fast end of the sweep. *)
             transfer_bytes = Engine.Units.mib 8;
             horizon = Engine.Time.s 20;
           })
         mbits)
  in
  let ratios =
    List.map2
      (fun mbit (r : Workload.Trace_experiment.result) ->
        let ratio = r.settled_cells /. float_of_int r.optimal_source_cells in
        Analysis.Table.add_row t
          [
            Printf.sprintf "%dMbit/s" mbit;
            string_of_int r.optimal_source_cells;
            Printf.sprintf "%.0f" r.settled_cells;
            Printf.sprintf "%.2f" ratio;
          ];
        ratio)
      mbits results
  in
  print_string (Analysis.Table.render t);
  Printf.printf "mean settled/W* ratio: %.2f (1.00 = perfect backpropagation)\n"
    (List.fold_left ( +. ) 0. ratios /. float_of_int (List.length ratios))

(* ------------------------------------------------------------------ *)
(* T-comp: compensation-mode ablation *)

let table_compensation () =
  section "Table T-comp (extra): overshooting-compensation ablation (distance 3)";
  let t =
    Analysis.Table.create
      ~columns:[ "scheme"; "exit cells"; "settled"; "optimal"; "ttlb" ]
  in
  let cases =
    [
      ("rate-based (default)", Circuitstart.Controller.Circuit_start,
       Circuitstart.Params.Rate_based);
      ("acked-count (literal)", Circuitstart.Controller.Circuit_start,
       Circuitstart.Params.Acked_count);
      ("halving (slow start)", Circuitstart.Controller.Slow_start,
       Circuitstart.Params.Rate_based);
    ]
  in
  let results =
    trace_many
      (List.map
         (fun (_, strategy, compensation) ->
           { (trace_config ~strategy ~distance:3) with
             Workload.Trace_experiment.params =
               { Circuitstart.Params.default with Circuitstart.Params.compensation };
           })
         cases)
  in
  List.iter2
    (fun (name, _, _) (r : Workload.Trace_experiment.result) ->
      Analysis.Table.add_row t
        [
          name;
          (match r.exit_cells with Some c -> string_of_int c | None -> "-");
          Printf.sprintf "%.0f" r.settled_cells;
          string_of_int r.optimal_source_cells;
          (match r.time_to_last_byte with
          | Some x -> Printf.sprintf "%.3fs" (Engine.Time.to_sec_f x)
          | None -> "-");
        ])
    cases results;
  print_string (Analysis.Table.render t)

(* ------------------------------------------------------------------ *)
(* T5: adaptive extension (paper section 3, future work) *)

let table_adaptive () =
  section "Table T5 (extra): reacting to a bandwidth step (3 -> 12 Mbit/s)";
  let t =
    Analysis.Table.create
      ~columns:
        [ "variant"; "opt before"; "opt after"; "cwnd@step"; "reaction"; "final cwnd" ]
  in
  let variants = [ true; false ] in
  let results =
    adaptive_many
      (List.map
         (fun adaptive -> { Workload.Adaptive_experiment.default_config with adaptive })
         variants)
  in
  List.iter2
    (fun adaptive (r : Workload.Adaptive_experiment.result) ->
      Analysis.Table.add_row t
        [
          (if adaptive then "adaptive re-probe" else "base algorithm");
          string_of_int r.optimal_before_cells;
          string_of_int r.optimal_after_cells;
          Printf.sprintf "%.0f" r.cwnd_at_step;
          (match r.reaction_time with
          | Some x -> Printf.sprintf "%.0fms" (Engine.Time.to_ms_f x)
          | None -> "never");
          Printf.sprintf "%.0f" r.final_cwnd;
        ])
    variants results;
  print_string (Analysis.Table.render t)

(* ------------------------------------------------------------------ *)
(* fig-backprop: every hop's window on one canvas — the paper's
   backpropagation claim, visualised. *)

let fig_backprop () =
  section "Figure (extra): backpropagation — all hop windows, bottleneck 3 hops away";
  let r =
    Workload.Trace_experiment.run
      (trace_config ~strategy:Circuitstart.Controller.Circuit_start ~distance:3)
  in
  note_events r.wall_events;
  let x_max = 800. in
  let resample points =
    Array.init 121 (fun i ->
        let x = float_of_int i *. x_max /. 120. in
        let v =
          Array.fold_left
            (fun acc (t, v) -> if Analysis.Series.ms_of_time t <= x then v else acc)
            2. points
        in
        (x, kb v))
  in
  let glyphs = [| '0'; '1'; '2'; '3' |] in
  let specs =
    List.mapi
      (fun i points ->
        { Analysis.Ascii_plot.label = Printf.sprintf "hop %d window" i;
          glyph = glyphs.(i mod 4); points = resample points })
      r.hop_cwnds
  in
  print_string
    (Analysis.Ascii_plot.render ~x_label:"time [ms]" ~y_label:"cwnd [KB]" specs);
  Printf.printf
    "every hop settles near the propagated minimum (%d cells) without any
     explicit signalling - the paper's backpropagation.
"
    r.propagated_cells;
  write_csv "fig_backprop.csv"
    (Analysis.Csv_out.series_csv
       (List.mapi (fun i p -> (Printf.sprintf "hop%d_kb" i, resample p)) r.hop_cwnds))

(* ------------------------------------------------------------------ *)
(* table-loss: bounded relay queues force drops; hop reliability must
   recover them without losing the figure's properties. *)

let table_loss () =
  section "Table T-loss (extra): bounded link queues (drops + retransmission)";
  let t =
    Analysis.Table.create
      ~columns:[ "queue cap"; "scheme"; "done"; "retx"; "settled"; "ttlb" ]
  in
  let cases =
    List.concat_map
      (fun (label, queue) ->
        List.map
          (fun (name, strategy) -> (label, queue, name, strategy))
          [ ("circuitstart", Circuitstart.Controller.Circuit_start);
            ("slowstart", Circuitstart.Controller.Slow_start) ])
      [
        ("unbounded", Netsim.Nqueue.unbounded);
        ("64 pkts", Netsim.Nqueue.packets 64);
        ("16 pkts", Netsim.Nqueue.packets 16);
        ("8 pkts", Netsim.Nqueue.packets 8);
      ]
  in
  let results =
    trace_many
      (List.map
         (fun (_, queue, _, strategy) ->
           { (trace_config ~strategy ~distance:2) with
             Workload.Trace_experiment.link_queue = queue;
           })
         cases)
  in
  List.iter2
    (fun (label, _, name, _) (r : Workload.Trace_experiment.result) ->
      Analysis.Table.add_row t
        [
          label;
          name;
          (if r.time_to_last_byte <> None then "yes" else "no");
          string_of_int r.retransmissions;
          Printf.sprintf "%.0f" r.settled_cells;
          (match r.time_to_last_byte with
          | Some x -> Printf.sprintf "%.3fs" (Engine.Time.to_sec_f x)
          | None -> "-");
        ])
    cases results;
  print_string (Analysis.Table.render t)

(* ------------------------------------------------------------------ *)
(* table-seeds: is the F1c improvement robust to the random network? *)

let table_seeds () =
  section "Table T-seeds (extra): F1c improvement across random networks";
  let t =
    Analysis.Table.create
      ~columns:[ "seed"; "median with"; "median without"; "gap"; "dominates" ]
  in
  let seeds = [ 1; 2; 3 ] in
  let results =
    star_many
      (List.concat_map
         (fun seed ->
           List.map
             (fun strategy ->
               { (star_config (Workload.Star_experiment.Backtap strategy)) with
                 Workload.Star_experiment.seed;
               })
             [ Circuitstart.Controller.Circuit_start;
               Circuitstart.Controller.Slow_start ])
         seeds)
  in
  let rec pairs = function
    | cs :: ss :: rest -> (cs, ss) :: pairs rest
    | [] -> []
    | _ -> assert false
  in
  let gaps =
    List.map2
      (fun seed ((cs : Workload.Star_experiment.result), (ss : Workload.Star_experiment.result)) ->
        let cdf_cs = Analysis.Cdf.of_samples cs.ttlb_seconds in
        let cdf_ss = Analysis.Cdf.of_samples ss.ttlb_seconds in
        let gap = Analysis.Cdf.horizontal_gap ~better:cdf_cs ~worse:cdf_ss in
        Analysis.Table.add_row t
          [
            string_of_int seed;
            Printf.sprintf "%.2fs" (Analysis.Cdf.quantile cdf_cs 0.5);
            Printf.sprintf "%.2fs" (Analysis.Cdf.quantile cdf_ss 0.5);
            Printf.sprintf "%.2fs" gap;
            string_of_bool (Analysis.Cdf.dominates ~better:cdf_cs ~worse:cdf_ss);
          ];
        gap)
      seeds (pairs results)
  in
  print_string (Analysis.Table.render t);
  Printf.printf "mean gap %.2fs over %d paired networks (paper: 'up to 0.5s')
"
    (List.fold_left ( +. ) 0. gaps /. float_of_int (List.length gaps))
    (List.length gaps)

(* ------------------------------------------------------------------ *)
(* table-cross: unresponsive background load on the bottleneck *)

let table_cross () =
  section "Table T-cross (extra): CBR background load on the bottleneck relay";
  let t =
    Analysis.Table.create
      ~columns:
        [ "CBR load"; "W* (unloaded)"; "fair target"; "settled"; "goodput share";
          "ttlb" ]
  in
  let loads = [ 0.; 0.25; 0.5; 0.75 ] in
  let results =
    contention_many
      (List.map
         (fun load ->
           { Workload.Contention_experiment.default_config with cbr_load = load })
         loads)
  in
  List.iter2
    (fun load (r : Workload.Contention_experiment.result) ->
      Analysis.Table.add_row t
        [
          Printf.sprintf "%.0f%%" (load *. 100.);
          string_of_int r.optimal_cells;
          Printf.sprintf "%.0f" r.expected_cells;
          Printf.sprintf "%.0f" r.settled_cells;
          (match r.goodput_share with
          | Some s -> Printf.sprintf "%.0f%%" (s *. 100.)
          | None -> "-");
          (match r.time_to_last_byte with
          | Some x -> Printf.sprintf "%.3fs" (Engine.Time.to_sec_f x)
          | None -> "-");
        ])
    loads results;
  print_string (Analysis.Table.render t);
  print_string
    "Delay-based control settles onto the residual capacity instead of
     fighting the unresponsive flow - 'behave much like background traffic'.
"

(* ------------------------------------------------------------------ *)
(* table-faults: wire loss on the bottleneck link — does the circuit
   survive, and what does recovery cost each startup scheme? *)

let fault_row t label (r : Workload.Fault_experiment.result) =
  Analysis.Table.add_row t
    [
      label;
      Workload.Fault_experiment.outcome_to_string r.outcome;
      (match r.time_to_last_byte with
      | Some x -> Printf.sprintf "%.3fs" (Engine.Time.to_sec_f x)
      | None -> "-");
      Printf.sprintf "%.2f" (r.goodput_bps /. 1e6);
      string_of_int r.retransmissions;
      string_of_int r.drops.Netsim.Link.fault_injected;
      (match r.failed_after with
      | Some x -> Printf.sprintf "%.3fs" (Engine.Time.to_sec_f x)
      | None -> "-");
    ]

let fault_columns =
  [ "fault"; "outcome"; "ttlb"; "goodput Mbit/s"; "retx"; "wire drops"; "failed after" ]

(* Both strategies of every labelled fault scenario, as one flat batch
   on the pool: the (seed, config) replicates are in [cs; ss] pairs per
   label, matching Fault_experiment.compare_strategies with its default
   seed. *)
let fault_comparison_rows t labelled_configs =
  let tasks =
    List.concat_map
      (fun (_, config) ->
        [
          (42, { config with
                 Workload.Fault_experiment.strategy =
                   Circuitstart.Controller.Circuit_start });
          (42, { config with
                 Workload.Fault_experiment.strategy =
                   Circuitstart.Controller.Slow_start });
        ])
      labelled_configs
  in
  let rec pairs = function
    | cs :: ss :: rest -> (cs, ss) :: pairs rest
    | [] -> []
    | _ -> assert false
  in
  List.iter2
    (fun (label, _) (cs, ss) ->
      fault_row t (label ^ " / circuitstart") cs;
      fault_row t (label ^ " / slowstart") ss)
    labelled_configs
    (pairs (fault_many tasks))

let table_faults () =
  section "Table T-faults (extra): wire loss on the bottleneck link (paired seeds)";
  let t = Analysis.Table.create ~columns:fault_columns in
  fault_comparison_rows t
    (List.map
       (fun (label, loss) ->
         (label, { Workload.Fault_experiment.default_config with loss }))
       [
         ("clean", None);
         ("0.1% iid", Some (Netsim.Faults.Bernoulli 0.001));
         ("1% iid", Some (Netsim.Faults.Bernoulli 0.01));
         ("5% iid", Some (Netsim.Faults.Bernoulli 0.05));
         ( "burst",
           Some
             (Netsim.Faults.Gilbert_elliott
                { p_good_to_bad = 0.01; p_bad_to_good = 0.2; loss_good = 0.;
                  loss_bad = 0.5 }) );
       ]);
  print_string (Analysis.Table.render t);
  print_string
    "Both schemes face the identical per-seed loss pattern; hop-by-hop\n\
     retransmission repairs it locally, so loss costs time, not the circuit.\n"

(* ------------------------------------------------------------------ *)
(* table-churn: kill the middle relay mid-transfer — the circuit must
   fail in bounded time, not hang. *)

let table_churn () =
  section "Table T-churn (extra): mid-transfer crash of the middle relay";
  let t = Analysis.Table.create ~columns:fault_columns in
  fault_comparison_rows t
    (List.map
       (fun (label, crash_at, outage) ->
         (label, { Workload.Fault_experiment.default_config with crash_at; outage }))
       [
         ("crash@0.3s", Some (Engine.Time.ms 300), None);
         ("outage 0.2-0.6s", None, Some (Engine.Time.ms 200, Engine.Time.ms 600));
       ]);
  print_string (Analysis.Table.render t);
  print_string
    "An outage is survivable (retransmission bridges it); a crash is not -\n\
     the sender facing the dead relay exhausts its budget and fails the\n\
     circuit instead of retransmitting forever.\n"

(* ------------------------------------------------------------------ *)
(* table-recovery: crash a relay mid-transfer and let the session
   rebuild and resume — paired CircuitStart vs slow start on identical
   crash schedules, for both path-selection policies. *)

let recovery_many tasks =
  let rs = Workload.Recovery_experiment.run_many ~jobs:!jobs tasks in
  List.iter
    (fun (r : Workload.Recovery_experiment.result) -> note_events r.wall_events)
    rs;
  rs

let table_recovery () =
  section "Table T-recovery (extra): session rebuild-and-resume after a relay crash";
  let t =
    Analysis.Table.create
      ~columns:
        [ "scenario"; "outcome"; "ttlb"; "rebuilds"; "recovery"; "delivered";
          "dup"; "retx"; "goodput" ]
  in
  let scenarios =
    [
      ( "crash middle@0.3s / bw",
        { Workload.Recovery_experiment.default_config with
          crash_at = Some (Engine.Time.ms 300) } );
      ( "crash guard@0.3s / bw",
        { Workload.Recovery_experiment.default_config with
          crash_at = Some (Engine.Time.ms 300);
          crash_position = 1 } );
      ( "crash middle@0.3s / uniform",
        { Workload.Recovery_experiment.default_config with
          crash_at = Some (Engine.Time.ms 300);
          selection = Tor_model.Directory.Uniform } );
      ( "no budget (exhausts)",
        { Workload.Recovery_experiment.default_config with
          crash_at = Some (Engine.Time.ms 300);
          max_rebuilds = 0 } );
    ]
  in
  let tasks =
    List.concat_map
      (fun (_, config) ->
        [
          (42, { config with
                 Workload.Recovery_experiment.strategy =
                   Circuitstart.Controller.Circuit_start });
          (42, { config with
                 Workload.Recovery_experiment.strategy =
                   Circuitstart.Controller.Slow_start });
        ])
      scenarios
  in
  let row label (r : Workload.Recovery_experiment.result) =
    Analysis.Table.add_row t
      [
        label;
        Workload.Recovery_experiment.outcome_to_string r.outcome;
        (match r.time_to_last_byte with
        | Some x -> Printf.sprintf "%.3fs" (Engine.Time.to_sec_f x)
        | None -> "-");
        string_of_int r.rebuilds;
        (match r.time_to_recover with
        | Some x -> Printf.sprintf "%.3fs" (Engine.Time.to_sec_f x)
        | None -> "-");
        string_of_int r.delivered_bytes;
        string_of_int r.duplicates;
        string_of_int r.retransmissions;
        Printf.sprintf "%.2f Mbit/s" (r.goodput_bps /. 1e6);
      ]
  in
  let rec pairs = function
    | cs :: ss :: rest -> (cs, ss) :: pairs rest
    | [] -> []
    | _ -> assert false
  in
  List.iter2
    (fun (label, _) (cs, ss) ->
      row (label ^ " / circuitstart") cs;
      row (label ^ " / slowstart") ss)
    scenarios
    (pairs (recovery_many tasks));
  print_string (Analysis.Table.render t);
  print_string
    "The session detects the dead relay, excludes it, rebuilds over an\n\
     alternate path and resumes at the delivered prefix - no byte crosses\n\
     the wire twice (dup = 0).  With max_rebuilds = 0 it exhausts instead.\n"

(* ------------------------------------------------------------------ *)
(* table-overload: flash crowd against budgeted relays — admission
   refusals, OOM circuit kills, and the cost of the startup strategy
   under contention.  Also writes BENCH_pr6.json with the headline
   overload metrics for both strategies. *)

let write_overload_json path ~(config : Workload.Overload_experiment.config)
    ~(cs : Workload.Overload_experiment.result)
    ~(ss : Workload.Overload_experiment.result)
    ~(pr : Workload.Overload_experiment.result) =
  let side (r : Workload.Overload_experiment.result) =
    Printf.sprintf
      "{\"completed\": %d, \"sessions\": %d, \"refusals\": %d, \
       \"refusal_rate\": %.4f, \"oom_kills\": %d, \"overload_enters\": %d, \
       \"rebuilds\": %d, \"mean_ttlb_s\": %s, \"max_ttlb_s\": %s, \
       \"goodput_bps\": %.1f, \"relay_byte_hwm\": %d, \"sim_events\": %d}"
      r.completed r.sessions r.refusals r.refusal_rate r.oom_kills
      r.overload_enters r.rebuilds
      (match r.mean_ttlb with
      | Some x -> Printf.sprintf "%.6f" (Engine.Time.to_sec_f x)
      | None -> "null")
      (match r.max_ttlb with
      | Some x -> Printf.sprintf "%.6f" (Engine.Time.to_sec_f x)
      | None -> "null")
      r.goodput_bps r.relay_byte_hwm r.wall_events
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"pr\": 6,\n  \"jobs\": %d,\n" !jobs);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"config\": {\"sessions\": %d, \"relays\": %d, \"transfer_bytes\": \
        %d, \"max_circuits\": %s, \"max_queued_bytes\": %s, \
        \"mean_interarrival_ms\": %.1f},\n"
       config.sessions config.relay_count config.transfer_bytes
       (match config.max_circuits with
       | Some n -> string_of_int n
       | None -> "null")
       (match config.max_queued_bytes with
       | Some n -> string_of_int n
       | None -> "null")
       (Engine.Time.to_ms_f config.mean_interarrival));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"circuitstart\": %s,\n  \"slowstart\": %s,\n  \"predictive\": %s\n"
       (side cs) (side ss) (side pr));
  Buffer.add_string buf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "[json] %s\n" path

let table_overload () =
  section "Table T-overload (extra): flash crowd against budgeted relays";
  let config = Workload.Overload_experiment.default_config in
  let c =
    Workload.Overload_experiment.compare_strategies ~jobs:!jobs ~seed:42 config
  in
  note_events c.circuit_start.wall_events;
  note_events c.slow_start.wall_events;
  note_events c.predictive.wall_events;
  let t =
    Analysis.Table.create
      ~columns:
        [ "strategy"; "done"; "refused"; "rate"; "oom"; "rebuilds";
          "mean ttlb"; "goodput"; "relay hwm" ]
  in
  let row label (r : Workload.Overload_experiment.result) =
    Analysis.Table.add_row t
      [
        label;
        Printf.sprintf "%d/%d" r.completed r.sessions;
        string_of_int r.refusals;
        Printf.sprintf "%.0f%%" (r.refusal_rate *. 100.);
        string_of_int r.oom_kills;
        string_of_int r.rebuilds;
        (match r.mean_ttlb with
        | Some x -> Printf.sprintf "%.3fs" (Engine.Time.to_sec_f x)
        | None -> "-");
        Printf.sprintf "%.2f Mbit/s" (r.goodput_bps /. 1e6);
        Format.asprintf "%a" Engine.Units.pp_bytes r.relay_byte_hwm;
      ]
  in
  row "circuitstart" c.circuit_start;
  row "slowstart" c.slow_start;
  row "predictive" c.predictive;
  print_string (Analysis.Table.render t);
  print_string
    "Budgeted relays refuse CREATEs while overloaded (the session redraws\n\
     without excluding them) and destroy their heaviest circuit when the\n\
     byte budget overflows - the crowd degrades, it does not collapse.\n";
  write_overload_json "BENCH_pr6.json" ~config ~cs:c.circuit_start
    ~ss:c.slow_start ~pr:c.predictive

(* ------------------------------------------------------------------ *)
(* table-network: the consensus-scale round-level workload — paired
   CS-vs-SS at the default population, then one full-scale run whose
   throughput and allocation rate are the headline metrics of
   BENCH_pr7.json (which bench/trajectory.exe gates against the
   blessed floors in bench/perf_floors.txt). *)

let sketch_q sk p =
  if Engine.Stats.Sketch.count sk = 0 then nan
  else Engine.Stats.Sketch.quantile sk p

let write_network_json path
    ~(paired : Workload.Network_experiment.config)
    ~(cs : Workload.Network_experiment.result)
    ~(ss : Workload.Network_experiment.result)
    ~(pr : Workload.Network_experiment.result)
    ~(scale : Workload.Network_experiment.result) ~scale_seconds ~minor_words =
  let side (r : Workload.Network_experiment.result) =
    Printf.sprintf
      "{\"completed\": %d, \"arrivals\": %d, \"refused\": %d, \"abandoned\": \
       %d, \"ttlb_p50_s\": %.6f, \"ttlb_p90_s\": %.6f, \"ttlb_p99_s\": %.6f, \
       \"rounds\": %d, \"sim_events\": %d}"
      r.completed r.arrivals r.refused_arrivals r.abandoned
      (sketch_q r.ttlb_all 0.5) (sketch_q r.ttlb_all 0.9)
      (sketch_q r.ttlb_all 0.99) r.rounds r.wall_events
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"pr\": 7,\n  \"jobs\": %d,\n" !jobs);
  (* Headline metrics first and exactly once: the trajectory gate's
     key scanner takes the first occurrence. *)
  Buffer.add_string buf
    (Printf.sprintf "  \"events_per_sec\": %.1f,\n"
       (if scale_seconds > 0. then
          float_of_int scale.wall_events /. scale_seconds
        else 0.));
  Buffer.add_string buf
    (Printf.sprintf "  \"minor_words_per_event\": %.4f,\n"
       (if scale.wall_events > 0 then
          minor_words /. float_of_int scale.wall_events
        else 0.));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"scale\": {\"relays\": %d, \"slots\": %d, \"completed\": %d, \
        \"peak_active\": %d, \"pool_recycles\": %d, \"seconds\": %.3f, \
        \"sim_events\": %d, \"ttlb_p50_s\": %.6f, \"ttlb_p90_s\": %.6f, \
        \"ttlb_p99_s\": %.6f},\n"
       scale.relays scale.slots scale.completed scale.peak_active
       scale.pool_recycles scale_seconds scale.wall_events
       (sketch_q scale.ttlb_all 0.5) (sketch_q scale.ttlb_all 0.9)
       (sketch_q scale.ttlb_all 0.99));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"paired\": {\"relays\": %d, \"slots\": %d, \"lifetimes\": %d,\n\
       \    \"circuitstart\": %s,\n    \"slowstart\": %s,\n\
       \    \"predictive\": %s}\n"
       paired.relays paired.slots
       (Workload.Network_experiment.lifetimes_goal paired)
       (side cs) (side ss) (side pr));
  Buffer.add_string buf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "[json] %s\n" path

(* PR 9: the sharded-engine speedup probe.  The same consensus-scale
   workload once per shard count.  The digests must agree byte-for-byte
   — the shard count chooses how the schedule executes, never what it
   computes — and the wall-clock ratios of the one-shard run over the
   k-shard runs are the headline speedups of BENCH_pr9.json.  On hosts
   with fewer cores than shards the ratios record honest slowdowns; the
   speedup floors carry min-cores markers so the trajectory gate skips
   them there and enforces them on hosts with enough cores. *)

let result_digest (r : Workload.Network_experiment.result) =
  Digest.to_hex (Digest.string (Marshal.to_string r []))

let write_shard_json path ~(config : Workload.Network_experiment.config)
    ~(s4 : Workload.Network_experiment.result) ~s1_s ~s2_s ~s4_s ~words4
    ~digest =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"pr\": 9,\n  \"host_cores\": %d,\n"
       (Domain.recommended_domain_count ()));
  (* Headline metrics first and exactly once (the gate's key scanner
     takes the first occurrence): throughput and allocation rate of
     the 4-shard run, then the 1-shard-over-k-shard wall-clock
     ratios. *)
  Buffer.add_string buf
    (Printf.sprintf "  \"events_per_sec\": %.1f,\n"
       (if s4_s > 0. then float_of_int s4.wall_events /. s4_s else 0.));
  Buffer.add_string buf
    (Printf.sprintf "  \"minor_words_per_event\": %.4f,\n"
       (if s4.wall_events > 0 then words4 /. float_of_int s4.wall_events
        else 0.));
  Buffer.add_string buf
    (Printf.sprintf "  \"speedup_2\": %.4f,\n  \"speedup_4\": %.4f,\n"
       (if s2_s > 0. then s1_s /. s2_s else 0.)
       (if s4_s > 0. then s1_s /. s4_s else 0.));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"shard_probe\": {\"relays\": %d, \"slots\": %d, \"lifetimes\": %d, \
        \"shard1_seconds\": %.3f, \"shard2_seconds\": %.3f, \
        \"shard4_seconds\": %.3f, \"sim_events\": %d, \"digest\": \"%s\"}\n"
       config.relays config.slots
       (Workload.Network_experiment.lifetimes_goal config)
       s1_s s2_s s4_s s4.wall_events digest);
  Buffer.add_string buf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "[json] %s\n" path

let shard_probe () =
  section "Sharded-engine speedup probe (BENCH_pr9.json)";
  let config =
    { Workload.Network_experiment.default_config with
      relays = 2_000;
      slots = 100_000;
      target_lifetimes = 500_000;
      mean_think = Engine.Time.ms 200;
    }
  in
  let timed_run shards =
    let config = { config with Workload.Network_experiment.shards } in
    let t0 = Unix.gettimeofday () in
    let r, words =
      Workload.Network_experiment.run_instrumented ~seed:7 config
    in
    let seconds = Unix.gettimeofday () -. t0 in
    note_events r.wall_events;
    (r, seconds, words)
  in
  let s1, s1_s, _ = timed_run 1 in
  let s2, s2_s, _ = timed_run 2 in
  let s4, s4_s, words4 = timed_run 4 in
  let d1 = result_digest s1 in
  let d2 = result_digest s2 in
  let d4 = result_digest s4 in
  if d1 <> d2 || d1 <> d4 then
    failwith
      (Printf.sprintf
         "shard probe: sharded results diverge (shards=1 %s, shards=2 %s, \
          shards=4 %s)"
         d1 d2 d4);
  Printf.printf
    "shards=1: %.1fs (%d done)  shards=2: %.1fs (%.2fx)  shards=4: %.1fs \
     (%.2fx)  digests agree (%d cores)\n"
    s1_s s1.completed s2_s
    (if s2_s > 0. then s1_s /. s2_s else 0.)
    s4_s
    (if s4_s > 0. then s1_s /. s4_s else 0.)
    (Domain.recommended_domain_count ());
  write_shard_json "BENCH_pr9.json" ~config ~s4 ~s1_s ~s2_s ~s4_s ~words4
    ~digest:d1

let table_network () =
  section
    "Table T-network (extra): consensus-scale round-level workload (paired + \
     full scale)";
  let paired = Workload.Network_experiment.default_config in
  let c =
    Workload.Network_experiment.compare_strategies ~jobs:!jobs ~seed:42 paired
  in
  note_events c.circuit_start.wall_events;
  note_events c.slow_start.wall_events;
  note_events c.predictive.wall_events;
  let t =
    Analysis.Table.create
      ~columns:
        [ "strategy"; "done"; "arrivals"; "abandoned"; "p50 ttlb"; "p90 ttlb";
          "p99 ttlb"; "rounds"; "peak live" ]
  in
  let row label (r : Workload.Network_experiment.result) =
    Analysis.Table.add_row t
      [
        label;
        string_of_int r.completed;
        string_of_int r.arrivals;
        string_of_int r.abandoned;
        Printf.sprintf "%.3fs" (sketch_q r.ttlb_all 0.5);
        Printf.sprintf "%.3fs" (sketch_q r.ttlb_all 0.9);
        Printf.sprintf "%.3fs" (sketch_q r.ttlb_all 0.99);
        string_of_int r.rounds;
        string_of_int r.peak_active;
      ]
  in
  row "circuitstart" c.circuit_start;
  row "slowstart" c.slow_start;
  row "predictive" c.predictive;
  print_string (Analysis.Table.render t);
  let gap =
    Analysis.Cdf.horizontal_gap
      ~better:(Analysis.Cdf.of_sketch c.circuit_start.ttlb_all)
      ~worse:(Analysis.Cdf.of_sketch c.slow_start.ttlb_all)
  in
  Printf.printf
    "largest horizontal gap (CircuitStart earlier by): %.3fs over %d paired \
     lifetimes\n"
    gap c.circuit_start.completed;
  (* The full-scale run: sequential on the main domain so the minor-GC
     counter is attributable to this run alone. *)
  let scale_config =
    { Workload.Network_experiment.default_config with
      relays = 2_000;
      slots = 100_000;
      target_lifetimes = 1_000_000;
      mean_think = Engine.Time.ms 200;
    }
  in
  let minor0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let scale = Workload.Network_experiment.run ~seed:7 scale_config in
  let scale_seconds = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. minor0 in
  note_events scale.wall_events;
  Format.printf "scale: %a@." Workload.Network_experiment.pp_result scale;
  Printf.printf
    "scale: %.1fs wall, %d events, %.0f events/sec, %.2f minor words/event\n"
    scale_seconds scale.wall_events
    (float_of_int scale.wall_events /. scale_seconds)
    (minor_words /. float_of_int scale.wall_events);
  write_network_json "BENCH_pr7.json" ~paired ~cs:c.circuit_start
    ~ss:c.slow_start ~pr:c.predictive ~scale ~scale_seconds ~minor_words;
  shard_probe ()

(* ------------------------------------------------------------------ *)
(* table-churn-scale: the same consensus-scale workload with the relay
   churn schedule switched on — paired CS-vs-SS under churn, then one
   full-scale churned run whose throughput and allocation rate are the
   headline metrics of BENCH_pr8.json (gated by bench/trajectory.exe
   against bench/perf_floors.txt, so the churn machinery can never
   silently eat the round-level hot path). *)

let write_churn_json path
    ~(paired : Workload.Network_experiment.config)
    ~(cs : Workload.Network_experiment.result)
    ~(ss : Workload.Network_experiment.result)
    ~(pr : Workload.Network_experiment.result)
    ~(scale : Workload.Network_experiment.result) ~scale_seconds ~minor_words =
  let side (r : Workload.Network_experiment.result) =
    Printf.sprintf
      "{\"completed\": %d, \"arrivals\": %d, \"refused\": %d, \"kills\": %d, \
       \"resumed\": %d, \"gone_draws\": %d, \"draining_refusals\": %d, \
       \"ttlb_p50_s\": %.6f, \"ttlb_p90_s\": %.6f, \"ttlb_p99_s\": %.6f, \
       \"sim_events\": %d}"
      r.completed r.arrivals r.refused_arrivals r.churn_kills r.resumed
      r.gone_draws r.draining_refusals
      (sketch_q r.ttlb_all 0.5) (sketch_q r.ttlb_all 0.9)
      (sketch_q r.ttlb_all 0.99) r.wall_events
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"pr\": 8,\n  \"jobs\": %d,\n" !jobs);
  (* Headline metrics first and exactly once: the trajectory gate's
     key scanner takes the first occurrence. *)
  Buffer.add_string buf
    (Printf.sprintf "  \"events_per_sec\": %.1f,\n"
       (if scale_seconds > 0. then
          float_of_int scale.wall_events /. scale_seconds
        else 0.));
  Buffer.add_string buf
    (Printf.sprintf "  \"minor_words_per_event\": %.4f,\n"
       (if scale.wall_events > 0 then
          minor_words /. float_of_int scale.wall_events
        else 0.));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"scale\": {\"relays\": %d, \"slots\": %d, \"completed\": %d, \
        \"peak_active\": %d, \"departs\": %d, \"crashes\": %d, \"drains\": \
        %d, \"restarts\": %d, \"epochs\": %d, \"kills\": %d, \"resumed\": \
        %d, \"gone_draws\": %d, \"draining_refusals\": %d, \"seconds\": \
        %.3f, \"sim_events\": %d, \"ttlb_p50_s\": %.6f, \"ttlb_p90_s\": \
        %.6f, \"ttlb_p99_s\": %.6f},\n"
       scale.relays scale.slots scale.completed scale.peak_active
       scale.churn_departs scale.churn_crashes scale.churn_drains_completed
       scale.churn_restarts scale.churn_epochs scale.churn_kills scale.resumed
       scale.gone_draws scale.draining_refusals scale_seconds scale.wall_events
       (sketch_q scale.ttlb_all 0.5) (sketch_q scale.ttlb_all 0.9)
       (sketch_q scale.ttlb_all 0.99));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"paired\": {\"relays\": %d, \"slots\": %d, \"lifetimes\": %d,\n\
       \    \"circuitstart\": %s,\n    \"slowstart\": %s,\n\
       \    \"predictive\": %s}\n"
       paired.relays paired.slots
       (Workload.Network_experiment.lifetimes_goal paired)
       (side cs) (side ss) (side pr));
  Buffer.add_string buf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "[json] %s\n" path

(* The churn knobs shared by the paired and the scale run: a 2%/s
   departure hazard against a 10%/s rejoin hazard keeps ~83% of the
   population up in steady state, with half the departures crashing and
   half draining over a 2 s grace, under a 5 s consensus epoch. *)
let churn_knobs (c : Workload.Network_experiment.config) =
  { c with
    Workload.Network_experiment.leave_hazard = 0.02;
    join_hazard = 0.1;
    crash_fraction = 0.5;
    drain_grace = Engine.Time.s 2;
    epoch_period = Engine.Time.s 5;
    churn_tick = Engine.Time.s 1;
    spare_relays = c.relays / 10;
  }

let table_churn_scale () =
  section
    "Table T-churn-scale (extra): consensus-scale workload under relay churn \
     (paired + full scale)";
  let paired = churn_knobs Workload.Network_experiment.default_config in
  let c =
    Workload.Network_experiment.compare_strategies ~jobs:!jobs ~seed:42 paired
  in
  note_events c.circuit_start.wall_events;
  note_events c.slow_start.wall_events;
  note_events c.predictive.wall_events;
  let t =
    Analysis.Table.create
      ~columns:
        [ "strategy"; "done"; "arrivals"; "kills"; "resumed"; "gone";
          "drain-ref"; "p50 ttlb"; "p90 ttlb"; "p99 ttlb" ]
  in
  let row label (r : Workload.Network_experiment.result) =
    Analysis.Table.add_row t
      [
        label;
        string_of_int r.completed;
        string_of_int r.arrivals;
        string_of_int r.churn_kills;
        string_of_int r.resumed;
        string_of_int r.gone_draws;
        string_of_int r.draining_refusals;
        Printf.sprintf "%.3fs" (sketch_q r.ttlb_all 0.5);
        Printf.sprintf "%.3fs" (sketch_q r.ttlb_all 0.9);
        Printf.sprintf "%.3fs" (sketch_q r.ttlb_all 0.99);
      ]
  in
  row "circuitstart" c.circuit_start;
  row "slowstart" c.slow_start;
  row "predictive" c.predictive;
  print_string (Analysis.Table.render t);
  let gap =
    Analysis.Cdf.horizontal_gap
      ~better:(Analysis.Cdf.of_sketch c.circuit_start.ttlb_all)
      ~worse:(Analysis.Cdf.of_sketch c.slow_start.ttlb_all)
  in
  Printf.printf
    "largest horizontal gap (CircuitStart earlier by): %.3fs over %d paired \
     lifetimes under churn\n"
    gap c.circuit_start.completed;
  Printf.printf
    "churn: %d departs (%d crashes, %d drains done), %d restarts, %d epochs, \
     %d kills -> %d resumed\n"
    c.circuit_start.churn_departs c.circuit_start.churn_crashes
    c.circuit_start.churn_drains_completed c.circuit_start.churn_restarts
    c.circuit_start.churn_epochs c.circuit_start.churn_kills
    c.circuit_start.resumed;
  (* The full-scale churned run: sequential on the main domain so the
     minor-GC counter is attributable to this run alone. *)
  let scale_config =
    churn_knobs
      { Workload.Network_experiment.default_config with
        relays = 2_000;
        slots = 100_000;
        target_lifetimes = 1_000_000;
        mean_think = Engine.Time.ms 200;
      }
  in
  let minor0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let scale = Workload.Network_experiment.run ~seed:7 scale_config in
  let scale_seconds = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. minor0 in
  note_events scale.wall_events;
  Format.printf "scale: %a@." Workload.Network_experiment.pp_result scale;
  Printf.printf
    "scale: %.1fs wall, %d events, %.0f events/sec, %.2f minor words/event\n"
    scale_seconds scale.wall_events
    (float_of_int scale.wall_events /. scale_seconds)
    (minor_words /. float_of_int scale.wall_events);
  write_churn_json "BENCH_pr8.json" ~paired ~cs:c.circuit_start
    ~ss:c.slow_start ~pr:c.predictive ~scale ~scale_seconds ~minor_words

(* ------------------------------------------------------------------ *)
(* table-predictive: the predictive receding-horizon controller under
   the consensus-scale workload — a three-strategy paired table, then
   one full-scale predictive run whose throughput and allocation rate
   are the headline metrics of BENCH_pr10.json (gated by
   bench/trajectory.exe against bench/perf_floors.txt, so planning
   stays off the per-feedback hot path: the planner runs once per
   round and its commit is allocation-free). *)

let write_predictive_json path
    ~(paired : Workload.Network_experiment.config)
    ~(cs : Workload.Network_experiment.result)
    ~(ss : Workload.Network_experiment.result)
    ~(pr : Workload.Network_experiment.result)
    ~(scale : Workload.Network_experiment.result) ~scale_seconds ~minor_words =
  let side (r : Workload.Network_experiment.result) =
    Printf.sprintf
      "{\"completed\": %d, \"arrivals\": %d, \"refused\": %d, \"abandoned\": \
       %d, \"ttlb_p50_s\": %.6f, \"ttlb_p90_s\": %.6f, \"ttlb_p99_s\": %.6f, \
       \"rounds\": %d, \"sim_events\": %d}"
      r.completed r.arrivals r.refused_arrivals r.abandoned
      (sketch_q r.ttlb_all 0.5) (sketch_q r.ttlb_all 0.9)
      (sketch_q r.ttlb_all 0.99) r.rounds r.wall_events
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"pr\": 10,\n  \"jobs\": %d,\n" !jobs);
  (* Headline metrics first and exactly once: the trajectory gate's
     key scanner takes the first occurrence. *)
  Buffer.add_string buf
    (Printf.sprintf "  \"events_per_sec\": %.1f,\n"
       (if scale_seconds > 0. then
          float_of_int scale.wall_events /. scale_seconds
        else 0.));
  Buffer.add_string buf
    (Printf.sprintf "  \"minor_words_per_event\": %.4f,\n"
       (if scale.wall_events > 0 then
          minor_words /. float_of_int scale.wall_events
        else 0.));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"scale\": {\"strategy\": \"predictive\", \"relays\": %d, \
        \"slots\": %d, \"completed\": %d, \"peak_active\": %d, \
        \"pool_recycles\": %d, \"seconds\": %.3f, \"sim_events\": %d, \
        \"ttlb_p50_s\": %.6f, \"ttlb_p90_s\": %.6f, \"ttlb_p99_s\": %.6f},\n"
       scale.relays scale.slots scale.completed scale.peak_active
       scale.pool_recycles scale_seconds scale.wall_events
       (sketch_q scale.ttlb_all 0.5) (sketch_q scale.ttlb_all 0.9)
       (sketch_q scale.ttlb_all 0.99));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"paired\": {\"relays\": %d, \"slots\": %d, \"lifetimes\": %d,\n\
       \    \"circuitstart\": %s,\n    \"slowstart\": %s,\n\
       \    \"predictive\": %s}\n"
       paired.relays paired.slots
       (Workload.Network_experiment.lifetimes_goal paired)
       (side cs) (side ss) (side pr));
  Buffer.add_string buf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "[json] %s\n" path

let table_predictive () =
  section
    "Table T-predictive (extra): receding-horizon controller, three-strategy \
     paired + full scale";
  let paired = Workload.Network_experiment.default_config in
  let c =
    Workload.Network_experiment.compare_strategies ~jobs:!jobs ~seed:42 paired
  in
  note_events c.circuit_start.wall_events;
  note_events c.slow_start.wall_events;
  note_events c.predictive.wall_events;
  let t =
    Analysis.Table.create
      ~columns:
        [ "strategy"; "done"; "arrivals"; "abandoned"; "p50 ttlb"; "p90 ttlb";
          "p99 ttlb"; "rounds" ]
  in
  let row label (r : Workload.Network_experiment.result) =
    Analysis.Table.add_row t
      [
        label;
        string_of_int r.completed;
        string_of_int r.arrivals;
        string_of_int r.abandoned;
        Printf.sprintf "%.3fs" (sketch_q r.ttlb_all 0.5);
        Printf.sprintf "%.3fs" (sketch_q r.ttlb_all 0.9);
        Printf.sprintf "%.3fs" (sketch_q r.ttlb_all 0.99);
        string_of_int r.rounds;
      ]
  in
  row "circuitstart" c.circuit_start;
  row "slowstart" c.slow_start;
  row "predictive" c.predictive;
  print_string (Analysis.Table.render t);
  (* The full-scale predictive run: sequential on the main domain so
     the minor-GC counter is attributable to this run alone. *)
  let scale_config =
    { Workload.Network_experiment.default_config with
      strategy = Circuitstart.Controller.Predictive;
      relays = 2_000;
      slots = 100_000;
      target_lifetimes = 1_000_000;
      mean_think = Engine.Time.ms 200;
    }
  in
  let minor0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let scale = Workload.Network_experiment.run ~seed:7 scale_config in
  let scale_seconds = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. minor0 in
  note_events scale.wall_events;
  Format.printf "scale: %a@." Workload.Network_experiment.pp_result scale;
  Printf.printf
    "scale: %.1fs wall, %d events, %.0f events/sec, %.2f minor words/event\n"
    scale_seconds scale.wall_events
    (float_of_int scale.wall_events /. scale_seconds)
    (minor_words /. float_of_int scale.wall_events);
  write_predictive_json "BENCH_pr10.json" ~paired ~cs:c.circuit_start
    ~ss:c.slow_start ~pr:c.predictive ~scale ~scale_seconds ~minor_words

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment plus the
   engine hot paths, all grouped in one run. *)

let micro () =
  section "Bechamel micro-benchmarks";
  let open Bechamel in
  let quick_trace distance () =
    ignore
      (Workload.Trace_experiment.run
         { (trace_config ~strategy:Circuitstart.Controller.Circuit_start ~distance) with
           Workload.Trace_experiment.transfer_bytes = Engine.Units.kib 64;
           horizon = Engine.Time.s 3;
         })
  in
  let quick_star transport () =
    ignore
      (Workload.Star_experiment.run
         { (star_config transport) with
           Workload.Star_experiment.circuit_count = 4;
           relay_count = 8;
           transfer_bytes = Engine.Units.kib 64;
           horizon = Engine.Time.s 30;
         })
  in
  let event_queue_churn () =
    let q = Engine.Event_queue.create () in
    for i = 0 to 999 do
      ignore (Engine.Event_queue.add q ~time:(Engine.Time.us (i * 37 mod 1000)) i)
    done;
    let rec drain () = match Engine.Event_queue.pop q with Some _ -> drain () | None -> () in
    drain ()
  in
  let rng_churn () =
    let rng = Engine.Rng.create 1 in
    for _ = 1 to 1000 do
      ignore (Engine.Rng.int rng 1000)
    done
  in
  let controller_churn () =
    let c = Circuitstart.Controller.create Circuitstart.Controller.Circuit_start in
    let now = ref Engine.Time.zero in
    for _ = 1 to 1000 do
      now := Engine.Time.add !now (Engine.Time.us 500);
      Circuitstart.Controller.on_feedback c ~now:!now ~rtt:(Engine.Time.ms 40) ()
    done
  in
  let tests =
    Test.make_grouped ~name:"circuitstart"
      [
        Test.make ~name:"engine/event-queue-1k" (Staged.stage event_queue_churn);
        Test.make ~name:"engine/rng-1k" (Staged.stage rng_churn);
        Test.make ~name:"core/controller-1k-feedbacks" (Staged.stage controller_churn);
        Test.make ~name:"fig1a/trace-d1" (Staged.stage (quick_trace 1));
        Test.make ~name:"fig1b/trace-d3" (Staged.stage (quick_trace 3));
        Test.make ~name:"fig1c/star-circuitstart"
          (Staged.stage
             (quick_star
                (Workload.Star_experiment.Backtap Circuitstart.Controller.Circuit_start)));
        Test.make ~name:"t1/star-sendme"
          (Staged.stage (quick_star Workload.Star_experiment.Legacy_sendme));
      ]
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 10) () in
    let raw = Benchmark.all cfg instances tests in
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = benchmark () in
  List.iter
    (fun result ->
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ t ] -> Printf.printf "%-32s %12.0f ns/run\n" name t
          | _ -> Printf.printf "%-32s (no estimate)\n" name)
        result)
    results

(* ------------------------------------------------------------------ *)
(* Timing, speedup probe and the BENCH json report *)

(* A batch of identical-shape small star runs (different seeds), timed
   once with one worker and once with the requested pool: the ratio is
   the end-to-end speedup the pool delivers on this machine.  On a
   single-core host the ratio is ~1 by construction. *)
let speedup_probe () =
  let tasks =
    List.init
      (2 * Stdlib.max 1 !jobs)
      (fun i ->
        { (star_config
             (Workload.Star_experiment.Backtap Circuitstart.Controller.Circuit_start))
          with
          Workload.Star_experiment.circuit_count = 4;
          relay_count = 8;
          transfer_bytes = Engine.Units.kib 64;
          horizon = Engine.Time.s 30;
          seed = i + 1;
        })
  in
  let time j =
    let t0 = Unix.gettimeofday () in
    ignore (Workload.Star_experiment.run_many ~jobs:j tasks
            : Workload.Star_experiment.result list);
    Unix.gettimeofday () -. t0
  in
  let seq_seconds = time 1 in
  let par_seconds = time !jobs in
  (List.length tasks, seq_seconds, par_seconds)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_bench_json path ~timed ~probe =
  let total_seconds = List.fold_left (fun acc (_, s, _) -> acc +. s) 0. timed in
  let total_events = List.fold_left (fun acc (_, _, e) -> acc + e) 0 timed in
  let probe_tasks, seq_s, par_s = probe in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"pr\": 2,\n  \"jobs\": %d,\n" !jobs);
  Buffer.add_string buf "  \"targets\": [\n";
  List.iteri
    (fun i (name, seconds, events) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"name\": \"%s\", \"seconds\": %.6f, \"sim_events\": %d}%s\n"
           (json_escape name) seconds events
           (if i = List.length timed - 1 then "" else ",")))
    timed;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf (Printf.sprintf "  \"total_seconds\": %.6f,\n" total_seconds);
  Buffer.add_string buf (Printf.sprintf "  \"total_sim_events\": %d,\n" total_events);
  Buffer.add_string buf
    (Printf.sprintf "  \"events_per_sec\": %.1f,\n"
       (if total_seconds > 0. then float_of_int total_events /. total_seconds else 0.));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"speedup_probe\": {\"tasks\": %d, \"seq_seconds\": %.6f, \"par_seconds\": \
        %.6f, \"speedup\": %.3f}\n"
       probe_tasks seq_s par_s
       (if par_s > 0. then seq_s /. par_s else 1.));
  Buffer.add_string buf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "[json] %s\n" path

(* ------------------------------------------------------------------ *)

let all_targets =
  [
    ("fig1a", fig1a);
    ("fig1b", fig1b);
    ("fig1c", fig1c);
    ("table-startup", table_startup);
    ("table-gamma", table_gamma);
    ("table-distance", table_distance);
    ("table-optmodel", table_optmodel);
    ("table-compensation", table_compensation);
    ("table-adaptive", table_adaptive);
    ("fig-backprop", fig_backprop);
    ("table-loss", table_loss);
    ("table-cross", table_cross);
    ("table-seeds", table_seeds);
    ("table-faults", table_faults);
    ("table-churn", table_churn);
    ("table-recovery", table_recovery);
    ("table-overload", table_overload);
    ("table-network", table_network);
    ("table-churn-scale", table_churn_scale);
    ("table-predictive", table_predictive);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse args acc_names micro_flag =
    match args with
    | [] -> (List.rev acc_names, micro_flag)
    | "--micro" :: rest -> parse rest acc_names true
    | "--out" :: dir :: rest ->
        out_dir := dir;
        parse rest acc_names micro_flag
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 ->
            jobs := j;
            parse rest acc_names micro_flag
        | _ ->
            prerr_endline "--jobs needs a positive integer";
            exit 2)
    | "--bench-json" :: path :: rest ->
        bench_json := path;
        parse rest acc_names micro_flag
    | name :: rest -> parse rest (name :: acc_names) micro_flag
  in
  let names, micro_flag = parse args [] false in
  let targets =
    match names with
    | [] -> all_targets
    | names ->
        List.map
          (fun name ->
            match List.assoc_opt name all_targets with
            | Some f -> (name, f)
            | None ->
                Printf.eprintf "unknown target %s; known: %s\n" name
                  (String.concat ", " (List.map fst all_targets));
                exit 2)
          names
  in
  let timed =
    List.map
      (fun (name, f) ->
        sim_events := 0;
        let t0 = Unix.gettimeofday () in
        f ();
        (name, Unix.gettimeofday () -. t0, !sim_events))
      targets
  in
  if micro_flag then micro ();
  section (Printf.sprintf "Wall-clock timing (%d worker domain%s)" !jobs
             (if !jobs = 1 then "" else "s"));
  let t =
    Analysis.Table.create ~columns:[ "target"; "seconds"; "sim events"; "events/s" ]
  in
  List.iter
    (fun (name, seconds, events) ->
      Analysis.Table.add_row t
        [
          name;
          Printf.sprintf "%.3f" seconds;
          string_of_int events;
          (if seconds > 0. then Printf.sprintf "%.0f" (float_of_int events /. seconds)
           else "-");
        ])
    timed;
  print_string (Analysis.Table.render t);
  let ((probe_tasks, seq_s, par_s) as probe) = speedup_probe () in
  Printf.printf
    "speedup probe: %d star runs  jobs=1: %.3fs  jobs=%d: %.3fs  speedup %.2fx\n"
    probe_tasks seq_s !jobs par_s
    (if par_s > 0. then seq_s /. par_s else 1.);
  write_bench_json !bench_json ~timed ~probe;
  Printf.printf "\nDone: %d target%s%s.\n" (List.length targets)
    (if List.length targets = 1 then "" else "s")
    (if micro_flag then " + micro benchmarks" else "")
