(* The three workloads: their configs, one run to the fixed goal, the
   output checks, and the digest of the simulated outputs. *)

module Net = Workload.Network_experiment
module Star = Workload.Star_experiment

type name = Star_f1c | Consensus | Churn_sharded

let all = [ Star_f1c; Consensus; Churn_sharded ]

let to_string = function
  | Star_f1c -> "star-f1c"
  | Consensus -> "consensus"
  | Churn_sharded -> "churn-sharded"

let of_string s = List.find_opt (fun w -> to_string w = s) all

(* [Small] is the benchmark's own test size: the same shapes, seconds
   less work. *)
type scale = Full | Small

let scale_to_string = function Full -> "full" | Small -> "small"

let scale_of_string = function "full" -> Some Full | "small" -> Some Small | _ -> None

(* The transfer each star circuit moves at full scale; the layer probes
   that stand in for one star circuit move the same. *)
let star_kib = 500

(* Figure 1c: 50 concurrent 3-relay BackTap circuits running
   CircuitStart over a random 30-relay population, one domain. *)
let star_config ~scale ~seed =
  let circuits, kib =
    match scale with Full -> (50, star_kib) | Small -> (8, 64)
  in
  { Star.default_config with
    circuit_count = circuits;
    transfer_bytes = Engine.Units.kib kib;
    transport = Star.Backtap Circuitstart.Controller.Circuit_start;
    horizon = Engine.Time.s 120;
    seed;
  }

(* Consensus scale: 2000 relays and 100k concurrent session slots on
   the classic single-domain engine, no churn. *)
let consensus_config ~scale =
  let relays, slots, lifetimes =
    match scale with
    | Full -> (2_000, 100_000, 60_000)
    | Small -> (200, 2_000, 4_000)
  in
  { Net.default_config with
    relays;
    slots;
    target_lifetimes = lifetimes;
    mean_think = Engine.Time.ms 200;
    strategy = Circuitstart.Controller.Circuit_start;
    shards = 0;
  }

(* The churn knobs of the churn-scale table: a 2%/s departure hazard
   against a 10%/s rejoin hazard, half crashes and half 2 s drains, a
   5 s directory epoch and 10% spare relays. *)
let with_churn (c : Net.config) =
  { c with
    leave_hazard = 0.02;
    join_hazard = 0.1;
    crash_fraction = 0.5;
    drain_grace = Engine.Time.s 2;
    epoch_period = Engine.Time.s 5;
    churn_tick = Engine.Time.s 1;
    spare_relays = c.relays / 10;
  }

let without_churn (c : Net.config) =
  { c with leave_hazard = 0.; join_hazard = 0. }

(* The same population and concurrency with churn on, split over two
   shards on two domains.  The run is long enough in simulated time
   (about 5.7 s) to pass the first directory epoch boundary at 5 s. *)
let churn_config ~scale =
  let c = with_churn (consensus_config ~scale) in
  { c with
    shards = 2;
    target_lifetimes = (match scale with Full -> 100_000 | Small -> c.target_lifetimes);
  }

let net_config w ~scale =
  match w with
  | Consensus -> consensus_config ~scale
  | Churn_sharded -> churn_config ~scale
  | Star_f1c -> invalid_arg "Spec.net_config: star-f1c is packet level"

(* The domains one run of [w] keeps busy. *)
let domains = function Churn_sharded -> 2 | Star_f1c | Consensus -> 1

(* What one run hands back, beyond its timings. *)
type outcome = {
  attempted : int;  (** Circuits (star) or the lifetime goal (round level). *)
  failed : int;
  cells : int;  (** Delivered cells. *)
  problems : string list;  (** Failed output checks; empty when correct. *)
  digest : string;  (** Of the simulated outputs. *)
  model : (string * float) list;  (** Simulated outputs (TTLB quantiles). *)
  counts : (string * float) list;  (** Layer work counts read off the result. *)
}

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))
let payload = Tor_model.Cell.payload_capacity
let cells_of_bytes b = (b + payload - 1) / payload

let quantile_of_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else a.(Stdlib.min (n - 1) (int_of_float (p *. float_of_int n)))

let check problems cond msg = if cond then problems else msg :: problems

(* Every circuit of the star finished, and with every byte.  The
   result has no per-hop counters, so the layer counts are derived:
   each completed circuit sent each of its cells once over every hop
   (client and relays each own one hop sender), and retransmissions add
   hops on top.  Both counts are exact up to the few duplicates a
   spurious retransmission sends downstream.  The hop probe counts the
   same quantities off live senders and checks this accounting. *)
let star_outcome (c : Star.config) (r : Star.result) =
  let hops = c.relays_per_circuit + 1 in
  let cells_each = cells_of_bytes c.transfer_bytes in
  let retx =
    List.fold_left (fun a (o : Star.circuit_outcome) -> a + o.retransmissions) 0 r.outcomes
  in
  let cells =
    List.fold_left
      (fun a (o : Star.circuit_outcome) -> a + cells_of_bytes o.received_bytes)
      0 r.outcomes
  in
  let short =
    List.length
      (List.filter
         (fun (o : Star.circuit_outcome) ->
           o.ttlb = None || o.received_bytes <> c.transfer_bytes)
         r.outcomes)
  in
  let problems =
    []
    |> (fun p -> check p (r.total = c.circuit_count) "not every circuit was deployed")
    |> (fun p -> check p (r.completed = r.total) "unfinished circuits at the horizon")
    |> fun p -> check p (short = 0) "a circuit delivered a short transfer"
  in
  let sorted = Array.copy r.ttlb_seconds in
  Array.sort Float.compare sorted;
  {
    attempted = r.total;
    failed = r.total - r.completed;
    cells;
    problems;
    digest = digest r;
    model =
      [
        ("ttlb_p50_s", quantile_of_sorted sorted 0.5);
        ("ttlb_p90_s", quantile_of_sorted sorted 0.9);
        ("ttlb_max_s", if Array.length sorted = 0 then nan else sorted.(Array.length sorted - 1));
      ];
    counts =
      [
        ("events", float_of_int r.wall_events);
        ("feedbacks", float_of_int (r.completed * cells_each * hops));
        ("cell_hops", float_of_int ((r.completed * cells_each * hops) + retx));
        ("retransmissions", float_of_int retx);
        ("queue_hwm_bytes", float_of_int r.max_link_queue_bytes);
      ];
  }

let sketch_q sk p =
  if Engine.Stats.Sketch.count sk = 0 then nan else Engine.Stats.Sketch.quantile sk p

(* The round-level oracles' counters are all zero, and the lifetime
   goal was met. *)
let net_outcome (c : Net.config) (r : Net.result) =
  let goal = Net.lifetimes_goal c in
  let problems =
    []
    |> (fun p -> check p (r.orphaned_circuits = 0) "orphaned_circuits <> 0")
    |> (fun p -> check p (r.orphaned_cells = 0) "orphaned_cells <> 0")
    |> (fun p -> check p (r.rounds_through_down = 0) "rounds_through_down <> 0")
    |> (fun p -> check p (r.depart_residue = 0) "depart_residue <> 0")
    |> fun p -> check p (r.completed >= goal) "lifetime goal not reached"
  in
  {
    attempted = goal;
    failed = Stdlib.max 0 (goal - r.completed);
    cells = r.delivered_cells;
    problems;
    digest = digest r;
    model =
      [
        ("ttlb_p50_s", sketch_q r.ttlb_all 0.5);
        ("ttlb_p90_s", sketch_q r.ttlb_all 0.9);
        ("ttlb_p99_s", sketch_q r.ttlb_all 0.99);
        ("ttlb_mice_p50_s", sketch_q r.ttlb_mice 0.5);
        ("sim_end_s", Engine.Time.to_sec_f r.end_time);
      ];
    counts =
      [
        ("events", float_of_int r.wall_events);
        ("rounds", float_of_int r.rounds);
        ("arrivals", float_of_int r.arrivals);
        ("refused_arrivals", float_of_int r.refused_arrivals);
        ("admission_redraws", float_of_int r.admission_redraws);
        ("pool_recycles", float_of_int r.pool_recycles);
        ("kills", float_of_int r.churn_kills);
        ("resumed", float_of_int r.resumed);
        ("gone_draws", float_of_int r.gone_draws);
        ("draining_refusals", float_of_int r.draining_refusals);
        ("epochs", float_of_int r.churn_epochs);
      ];
  }

(* The variants one measurement can ask for. *)
type variant =
  | Main  (** The workload as defined. *)
  | Setup  (** The same config cut to a 1 ns horizon: world building only. *)
  | Shards of int  (** Round level: the same config at this shard count. *)
  | No_churn  (** Round level: the same config with both hazards at 0. *)

let variant_to_string = function
  | Main -> "main"
  | Setup -> "setup"
  | Shards k -> "shards" ^ string_of_int k
  | No_churn -> "nochurn"

let variant_of_string = function
  | "main" -> Some Main
  | "setup" -> Some Setup
  | "nochurn" -> Some No_churn
  | s when String.length s > 6 && String.sub s 0 6 = "shards" ->
      Option.map (fun k -> Shards k) (int_of_string_opt (String.sub s 6 (String.length s - 6)))
  | _ -> None

(* One run of [w] under [variant]: the outcome and the minor words
   allocated over all participating domains. *)
let run w ~scale ~seed variant =
  match w with
  | Star_f1c -> (
      let c = star_config ~scale ~seed in
      let c = if variant = Setup then { c with horizon = Engine.Time.ns 1 } else c in
      let w0 = Gc.minor_words () in
      let r = Star.run c in
      let words = Gc.minor_words () -. w0 in
      match variant with
      | Setup -> (None, words)
      | _ -> (Some (star_outcome c r), words))
  | Consensus | Churn_sharded ->
      let c = net_config w ~scale in
      let c =
        match variant with
        | Main -> c
        | Setup -> { c with duration = Engine.Time.ns 1 }
        | Shards k -> { c with shards = k }
        | No_churn -> without_churn c
      in
      let r, words = Net.run_instrumented ~seed c in
      ((if variant = Setup then None else Some (net_outcome c r)), words)

(* The relay population a workload generates first, for the
   [setup.population_s] probe. *)
let population w ~scale ~seed () =
  match w with
  | Star_f1c ->
      let c = star_config ~scale ~seed in
      let rng = Engine.Rng.create seed in
      ignore (Workload.Relay_gen.generate (Engine.Rng.split rng) c.relay_config ~n:c.relay_count)
  | Consensus | Churn_sharded ->
      let c = net_config w ~scale in
      let rng = Engine.Rng.create seed in
      ignore
        (Workload.Relay_gen.generate (Engine.Rng.split rng) c.population
           ~n:(c.relays + c.spare_relays))
