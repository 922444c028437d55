(* Per-layer probes: each drives one layer through its public entry
   points, outside any workload, and returns the cost per unit of that
   layer's work.  The probes' own loops allocate nothing per
   operation, so the minor words counted are the layer's own. *)

type cost = { ns_per_op : float; words_per_op : float; ops : int }

let time_ops f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let ops = f () in
  let dt = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let n = float_of_int (Stdlib.max 1 ops) in
  { ns_per_op = dt *. 1e9 /. n; words_per_op = words /. n; ops }

(* The median cost over [reps] repetitions of [f]. *)
let median_cost ~reps f =
  let cs = List.init reps (fun _ -> f ()) in
  let med g = Report.median (List.map g cs) in
  { ns_per_op = med (fun c -> c.ns_per_op); words_per_op = med (fun c -> c.words_per_op); ops = (List.hd cs).ops }

let relay_specs seed ~n =
  Workload.Relay_gen.generate (Engine.Rng.create seed) Workload.Relay_gen.default_config ~n

let cell_time (s : Workload.Relay_gen.spec) =
  Engine.Units.Rate.transmission_time s.bandwidth Backtap.Wire.cell_size

(* One 3-relay BackTap circuit on a fresh 6-relay star built from
   [Tor_net], established, with a 500 KiB CircuitStart transfer deployed
   and not yet started. *)
let circuit ~seed =
  let sim = Engine.Sim.create () in
  let b = Workload.Tor_net.builder sim () in
  List.iter (Workload.Tor_net.add_relay b) (relay_specs seed ~n:6);
  let endpoint name =
    Workload.Tor_net.add_endpoint b ~name ~rate:(Engine.Units.Rate.mbit 100)
      ~delay:(Engine.Time.ms 10)
  in
  let client = endpoint "client" and server = endpoint "server" in
  let net = Workload.Tor_net.finalize b in
  let relays =
    match
      Tor_model.Directory.select_path (Workload.Tor_net.directory net) (Engine.Rng.create seed)
        ~hops:3 ()
    with
    | Some r -> r
    | None -> failwith "circuit probe: path selection failed"
  in
  let circuit =
    Tor_model.Circuit.make
      ~id:(Tor_model.Circuit_id.next (Workload.Tor_net.circuit_ids net))
      ~client ~relays ~server
  in
  let up = ref false in
  Tor_model.Circuit_builder.build
    (Workload.Tor_net.switchboard net client)
    circuit
    ~on_done:(function Tor_model.Circuit_builder.Established _ -> up := true | _ -> ())
    ();
  Engine.Sim.run sim;
  if not !up then failwith "circuit probe: circuit establishment failed";
  let d =
    Backtap.Transfer.deploy ~node_of:(Workload.Tor_net.backtap_node net) ~circuit
      ~bytes:(Engine.Units.kib Spec.star_kib) ~strategy:Circuitstart.Controller.Circuit_start ()
  in
  (sim, d)

(* Run a started transfer past completion until the last feedbacks are
   in, so every first transmission has its feedback counted. *)
let finish sim d =
  Engine.Sim.run sim ~until:(Engine.Time.add (Engine.Sim.now sim) (Engine.Time.s 60));
  if not (Backtap.Transfer.complete d) then failwith "circuit probe: transfer incomplete"

(* The star's scheduler traffic, measured on real circuits: a fire
   probe on each circuit's sim samples, at every event until the
   transfer completes, the clock and the number of pending events.
   Between two firings the pending set is constant, so the time
   integral of the pending count gives the mean timer population and,
   by Little's law, the mean delay from arming to firing. *)
type mix = {
  circuits : int;
  timers_per_circuit : float;  (** Time-average pending events. *)
  mean_delay : float;  (** Seconds. *)
  gaps : float array;  (** Seconds between successive firings, pooled. *)
}

let star_mix ~seed ~circuits =
  let gaps = ref [] and area = ref 0. and span = ref 0. and fired = ref 0 in
  for c = 0 to circuits - 1 do
    let sim, d = circuit ~seed:(seed + c) in
    let last = ref (Engine.Sim.now sim) in
    Engine.Sim.set_fire_probe sim
      (Some
         (fun now ->
           if not (Backtap.Transfer.complete d) then begin
             let gap = Engine.Time.to_sec_f (Engine.Time.diff now !last) in
             (* This event was pending too, until it was popped. *)
             area := !area +. (gap *. float_of_int (Engine.Sim.pending_events sim + 1));
             span := !span +. gap;
             gaps := gap :: !gaps;
             incr fired
           end;
           last := now));
    Backtap.Transfer.start d;
    finish sim d
  done;
  {
    circuits;
    timers_per_circuit = !area /. !span;
    mean_delay = !area /. float_of_int !fired;
    gaps = Array.of_list !gaps;
  }

(* Scheduler: a population of self-rearming [Sim.Timer]s on the
   workload's wheel geometry, each rearm drawing the next delay from
   the workload's delay mix. *)
type geometry = { tick_bits : int option; wheel_slots : int option; timers : int }

let star_circuits = 50

let star_needs_mix () = invalid_arg "Probe.sched: star-f1c needs its measured mix"

let sched_delays (w : Spec.name) ~seed ~scale ?mix () =
  let rng = Engine.Rng.create seed in
  let n = 4096 in
  match (w, mix) with
  | Star_f1c, None -> star_needs_mix ()
  | Star_f1c, Some mix ->
      (* The measured mix, scaled to the star's circuits sharing one
         sim: their firings interleave, so the star's firing gaps are the
         measured ones shrunk by the circuit count, while its population
         grows by it.  A timer population that reproduces both rearms
         after the measured gap times the per-circuit population, whose
         mean is the measured Little's-law delay. *)
      Array.init n (fun _ ->
          let g = mix.gaps.(Engine.Rng.int rng (Array.length mix.gaps)) in
          Engine.Time.of_sec_f (g *. mix.timers_per_circuit))
  | (Consensus | Churn_sharded), _ ->
      (* One RTT round per circuit (three relays and two access legs
         each way) and, once per lifetime, an exponential think time;
         about 22 rounds per arrival at this size. *)
      let specs = Array.of_list (relay_specs seed ~n:64) in
      let pick () = specs.(Engine.Rng.int rng (Array.length specs)) in
      let c = Spec.net_config w ~scale in
      let access = Engine.Time.to_sec_f c.access_delay in
      let think = Engine.Time.to_sec_f c.mean_think in
      Array.init n (fun _ ->
          if Engine.Rng.float rng 1. < 1. /. 23. then
            Engine.Time.of_sec_f (Engine.Rng.exponential rng ~mean:think)
          else
            let one_way =
              (2. *. access)
              +. List.fold_left
                   (fun a _ -> a +. Engine.Time.to_sec_f (pick ()).latency)
                   0. [ 1; 2; 3 ]
            in
            Engine.Time.of_sec_f (2. *. one_way))

let sched_geometry (w : Spec.name) ~scale ?mix () =
  match (w, mix) with
  | Star_f1c, None -> star_needs_mix ()
  | Star_f1c, Some mix ->
      {
        tick_bits = None;
        wheel_slots = None;
        timers = Stdlib.max 1 (Float.to_int (Float.round (mix.timers_per_circuit *. float_of_int star_circuits)));
      }
  | (Consensus | Churn_sharded), _ ->
      let c = Spec.net_config w ~scale in
      let per_sim = if c.shards > 0 then c.slots / c.shards else c.slots in
      { tick_bits = Some 20; wheel_slots = Some 1024; timers = per_sim }

let sched w ~seed ~scale ?mix ~events () =
  let g = sched_geometry w ~scale ?mix () in
  let delays = sched_delays w ~seed ~scale ?mix () in
  let mask = Array.length delays - 1 in
  let sim =
    Engine.Sim.create ~capacity:g.timers ?tick_bits:g.tick_bits ?wheel_slots:g.wheel_slots ()
  in
  let next = ref 0 in
  let rearm = ref (fun (_ : int) -> ()) in
  let timers = Array.init g.timers (fun i -> Engine.Sim.Timer.create sim (fun () -> !rearm i)) in
  let fired = ref 0 in
  (rearm :=
     fun i ->
       incr fired;
       if !fired <= events - g.timers then begin
         Engine.Sim.Timer.arm_after sim timers.(i) delays.(!next land mask);
         incr next
       end);
  Array.iteri (fun i tm -> Engine.Sim.Timer.arm_after sim tm delays.(i land mask)) timers;
  time_ops (fun () ->
      Engine.Sim.run sim;
      Engine.Sim.events_executed sim)

(* Controller: [send_allowance] + [on_feedback] on an RTT stream shaped
   like a star hop — base RTT from two relay legs, a bottleneck cell
   time from the relay population, and queueing delay once the window
   overshoots the path's BDP.  Each transfer (one 500 KiB circuit's
   worth of feedback) starts a fresh controller, as a hop does. *)
type path = { nows : Engine.Time.t array; rtts : Engine.Time.t array; bdp : int }

let per_transfer = Spec.cells_of_bytes (Engine.Units.kib Spec.star_kib)
let max_queue = 4096

let ctrl_paths ~seed =
  let specs = Array.of_list (relay_specs seed ~n:16) in
  Array.init 8 (fun i ->
      let a = specs.(2 * i) and b = specs.((2 * i) + 1) in
      let base =
        Engine.Time.add (Engine.Time.mul_int (Engine.Time.add a.latency b.latency) 2) (Engine.Time.ms 2)
      in
      let slow = if Engine.Units.Rate.to_bps a.bandwidth < Engine.Units.Rate.to_bps b.bandwidth then a else b in
      let ser = cell_time slow in
      let bdp = Stdlib.max 1 (int_of_float (Engine.Time.ratio base ser)) in
      {
        nows = Array.init per_transfer (fun j -> Engine.Time.add base (Engine.Time.mul_int ser j));
        rtts = Array.init (max_queue + 1) (fun q -> Engine.Time.add base (Engine.Time.mul_int ser q));
        bdp;
      })

let ctrl strategy ~seed ~transfers =
  let paths = ctrl_paths ~seed in
  time_ops (fun () ->
      for t = 0 to transfers - 1 do
        let p = paths.(t land (Array.length paths - 1)) in
        let c = Circuitstart.Controller.create strategy in
        for j = 0 to per_transfer - 1 do
          let q = Circuitstart.Controller.send_allowance c - p.bdp in
          let q = if q < 0 then 0 else if q > max_queue then max_queue else q in
          Circuitstart.Controller.on_feedback c ~now:p.nows.(j) ~rtt:p.rtts.(q) ()
        done
      done;
      transfers * per_transfer)

(* Packet hop: 3-relay circuits from [circuit], one per transfer; only
   the transfer phase is timed.  Cell hops and feedbacks are counted
   off the live hop senders, which checks the accounting the star's
   counts rest on. *)
type hop = { cost : cost; sent : int; feedbacks : int; retransmissions : int }

let hop ~seed ~transfers =
  let feedbacks = ref 0 and retx = ref 0 and sent = ref 0 in
  let elapsed = ref 0. and words = ref 0. in
  for t = 0 to transfers - 1 do
    let sim, d = circuit ~seed:(seed + t) in
    let c =
      time_ops (fun () ->
          Backtap.Transfer.start d;
          finish sim d;
          1)
    in
    elapsed := !elapsed +. (c.ns_per_op *. 1e-9);
    words := !words +. c.words_per_op;
    List.iter
      (fun s ->
        sent := !sent + Backtap.Hop_sender.cells_sent s;
        retx := !retx + Backtap.Hop_sender.retransmissions s;
        feedbacks := !feedbacks + Backtap.Hop_sender.feedback_received s)
      (Backtap.Transfer.senders d)
  done;
  let hops = !sent + !retx in
  let n = float_of_int (Stdlib.max 1 hops) in
  {
    cost = { ns_per_op = !elapsed *. 1e9 /. n; words_per_op = !words /. n; ops = hops };
    feedbacks = !feedbacks;
    sent = !sent;
    retransmissions = !retx;
  }

(* Shard exchange: an empty-job [Team.run] at 2 shards is one barrier
   rendezvous and nothing else. *)
let barrier ~runs =
  let team = Engine.Pool.Team.create ~shards:2 () in
  Fun.protect ~finally:(fun () -> Engine.Pool.Team.shutdown team) @@ fun () ->
  for _ = 1 to runs / 10 do
    Engine.Pool.Team.run team ignore
  done;
  time_ops (fun () ->
      for _ = 1 to runs do
        Engine.Pool.Team.run team ignore
      done;
      runs)
