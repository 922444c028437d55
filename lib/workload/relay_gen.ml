type spec = {
  nickname : string;
  bandwidth : Engine.Units.Rate.t;
  latency : Engine.Time.t;
  flags : Tor_model.Relay_info.flag list;
}

type config = {
  bandwidth_median_mbit : float;
  bandwidth_sigma : float;
  bandwidth_min_mbit : float;
  bandwidth_max_mbit : float;
  latency_min : Engine.Time.t;
  latency_max : Engine.Time.t;
  exit_fraction : float;
}

let default_config =
  {
    bandwidth_median_mbit = 10.;
    bandwidth_sigma = 0.75;
    bandwidth_min_mbit = 1.;
    bandwidth_max_mbit = 100.;
    latency_min = Engine.Time.ms 5;
    latency_max = Engine.Time.ms 15;
    exit_fraction = 0.34;
  }

let validate_config c =
  if c.bandwidth_median_mbit <= 0. then Error "bandwidth_median_mbit must be positive"
  else if c.bandwidth_sigma < 0. then Error "bandwidth_sigma must be non-negative"
  else if c.bandwidth_min_mbit <= 0. then Error "bandwidth_min_mbit must be positive"
  else if c.bandwidth_max_mbit < c.bandwidth_min_mbit then
    Error "bandwidth_max_mbit below bandwidth_min_mbit"
  else if Engine.Time.(c.latency_max < c.latency_min) then
    Error "latency_max below latency_min"
  else if c.exit_fraction <= 0. || c.exit_fraction > 1. then
    Error "exit_fraction must be in (0, 1]"
  else Ok c

let generate rng config ~n =
  let config =
    match validate_config config with
    | Ok c -> c
    | Error msg -> invalid_arg ("Relay_gen.generate: " ^ msg)
  in
  if n <= 0 then invalid_arg "Relay_gen.generate: n must be positive";
  (* For a log-normal, exp(mu) is the median. *)
  let mu = Float.log config.bandwidth_median_mbit in
  let exit_every = Stdlib.max 1 (int_of_float (Float.round (1. /. config.exit_fraction))) in
  List.init n (fun i ->
      let mbit =
        Engine.Rng.lognormal rng ~mu ~sigma:config.bandwidth_sigma
        |> Float.max config.bandwidth_min_mbit
        |> Float.min config.bandwidth_max_mbit
      in
      let lat_lo = Engine.Time.to_ns config.latency_min in
      let lat_hi = Engine.Time.to_ns config.latency_max in
      let latency =
        if lat_lo = lat_hi then config.latency_min
        else
          Engine.Time.ns
            (lat_lo
            + int_of_float (Engine.Rng.float rng (float_of_int (lat_hi - lat_lo))))
      in
      let flags =
        let base =
          [ Tor_model.Relay_info.Guard; Tor_model.Relay_info.Fast;
            Tor_model.Relay_info.Stable ]
        in
        if i mod exit_every = 0 then Tor_model.Relay_info.Exit :: base else base
      in
      { nickname = Printf.sprintf "relay%02d" i;
        bandwidth = Engine.Units.Rate.mbit_f mbit; latency; flags })
