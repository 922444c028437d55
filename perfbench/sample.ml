(* One measured run in a fresh process, and how the parent gets it
   back: the child marshals its [t] to stdout, the parent reads it
   off a pipe and waits for the child to exit. *)

type t = {
  started_at : float;  (** Absolute, so parent and child spans compose. *)
  wall_s : float;
  cpu_s : float;  (** user + sys over every domain of the process. *)
  minor_words : float;  (** Over every participating domain. *)
  top_heap_words : int;
  minor_gcs : int;
  major_gcs : int;
  outcome : Spec.outcome option;  (** [None] for set-up runs. *)
}

let measure w ~scale ~seed variant =
  let t0 = Unix.times () in
  let c0 = t0.tms_utime +. t0.tms_stime in
  let s0 = Gc.quick_stat () in
  let start = Unix.gettimeofday () in
  let outcome, minor_words = Spec.run w ~scale ~seed variant in
  let wall_s = Unix.gettimeofday () -. start in
  let t1 = Unix.times () in
  let s1 = Gc.quick_stat () in
  {
    started_at = start;
    wall_s;
    cpu_s = t1.tms_utime +. t1.tms_stime -. c0;
    minor_words;
    top_heap_words = s1.top_heap_words;
    minor_gcs = s1.minor_collections - s0.minor_collections;
    major_gcs = s1.major_collections - s0.major_collections;
    outcome;
  }

let child_flag = "--child"

(* Builds per set-up child.  One build is tens of milliseconds, short
   enough for host jitter to swamp it, so a set-up child builds the
   world this many times and hands back the median build. *)
let setup_builds = 15

(* Run as a child: measure, marshal to stdout, exit. *)
let serve ~workload ~scale ~seed ~variant =
  let s =
    match variant with
    | Spec.Setup ->
        List.init setup_builds (fun _ -> measure workload ~scale ~seed variant)
        |> List.sort (fun a b -> Float.compare a.wall_s b.wall_s)
        |> fun xs -> List.nth xs (setup_builds / 2)
    | _ -> measure workload ~scale ~seed variant
  in
  set_binary_mode_out stdout true;
  Marshal.to_channel stdout (s : t) [];
  flush stdout

(* Start [exe] as a child for one measurement. *)
let start ~exe w ~scale ~seed variant =
  let args =
    [|
      exe;
      child_flag;
      Spec.variant_to_string variant;
      "--workload";
      Spec.to_string w;
      "--seed";
      string_of_int seed;
      "--scale";
      Spec.scale_to_string scale;
    |]
  in
  let ic = Unix.open_process_args_in exe args in
  set_binary_mode_in ic true;
  ic

(* Waits for the child; [None] if it failed. *)
let collect ic =
  let s = try Some (Marshal.from_channel ic : t) with End_of_file | Failure _ -> None in
  match (Unix.close_process_in ic, s) with Unix.WEXITED 0, Some s -> Some s | _ -> None

(* [copies] children for the same measurement, run at once.  Every
   child is waited for before a failure is raised. *)
let spawn_copies ~copies ~exe w ~scale ~seed variant =
  let results = List.map collect (List.init copies (fun _ -> start ~exe w ~scale ~seed variant)) in
  if List.mem None results then
    failwith
      (Printf.sprintf "measurement child %s/%s failed" (Spec.to_string w)
         (Spec.variant_to_string variant));
  List.filter_map Fun.id results

let spawn ~exe w ~scale ~seed variant = List.hd (spawn_copies ~copies:1 ~exe w ~scale ~seed variant)
