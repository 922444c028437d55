(* The benchmark's own test: every workload at test size on a second
   seed, timed and traced.  Each run must pass its output checks with
   no failed operation, and its result line must carry every metric
   BENCHMARK.json names, with its unit. *)

let exe = Sys.argv.(1)
let benchmark_json = Sys.argv.(2)
let seed = "2"

(* First index of [sub] in [s], if any. *)
let find s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

let read_lines path =
  let ic = open_in path in
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

(* The text between [key] and the next double quote. *)
let field line key =
  match find line key with
  | None -> None
  | Some i ->
      let start = i + String.length key in
      Option.map (fun j -> String.sub line start (j - start)) (String.index_from_opt line start '"')

(* BENCHMARK.json lists one metric per line; end-to-end metrics carry a
   bound, per-layer ones do not. *)
let declared ~traced =
  read_lines benchmark_json
  |> List.filter_map (fun line ->
         let end_to_end = Option.is_some (find line "\"bound\"") in
         match (field line "\"name\": \"", field line "\"unit\": \"") with
         | Some name, Some unit when end_to_end = not traced -> Some (name, unit)
         | _ -> None)

let run_bench workload ~trace =
  let args =
    [| exe; "--workload"; workload; "--seed"; seed; "--seconds"; "1"; "--trace"; trace; "--scale"; "small" |]
  in
  let ic = Unix.open_process_args_in exe args in
  let rec go last = match input_line ic with l -> go (Some l) | exception End_of_file -> last in
  let last = go None in
  (Unix.close_process_in ic, last)

let check workload ~trace () =
  let status, last = run_bench workload ~trace in
  Alcotest.(check bool) "exit 0" true (status = Unix.WEXITED 0);
  let line = Option.value ~default:"" last in
  let has s = Option.is_some (find line s) in
  Alcotest.(check bool) ("output checks pass: " ^ line) true (has "{\"correct\": true, \"attempted\": ");
  Alcotest.(check bool) "no failed operation" true (has ", \"failed\": 0, \"metrics\": ");
  let metrics = declared ~traced:(trace = "1") in
  Alcotest.(check bool) "BENCHMARK.json names metrics" true (metrics <> []);
  List.iter
    (fun (name, unit) ->
      match find line (Printf.sprintf "\"%s\": {\"value\": " name) with
      | None -> Alcotest.failf "%s: metric %s missing" workload name
      | Some i -> (
          let rest = String.sub line i (String.length line - i) in
          match String.index_opt rest '}' with
          | None -> Alcotest.failf "%s: metric %s unterminated" workload name
          | Some j ->
              let entry = String.sub rest 0 (j + 1) in
              if Option.is_none (find entry (Printf.sprintf ", \"unit\": \"%s\"}" unit)) then
                Alcotest.failf "%s: metric %s lacks unit %s: %s" workload name unit entry;
              if Option.is_some (find entry "null") then
                Alcotest.failf "%s: metric %s has no value: %s" workload name entry))
    metrics

let () =
  let cases trace =
    List.map
      (fun w -> Alcotest.test_case w `Quick (check w ~trace))
      [ "star-f1c"; "consensus"; "churn-sharded" ]
  in
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perfbench" [ ("timed", cases "0"); ("traced", cases "1") ]
