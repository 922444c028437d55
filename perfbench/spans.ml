(* In-memory spans (name, start, end, parent) for the traced run,
   recorded around the benchmark's own calls into each layer and
   written out once at exit. *)

type t = { id : int; name : string; start : float; stop : float; parent : int option }

let recorded = ref []
let next_id = ref 0
let current = ref None

let fresh () =
  let id = !next_id in
  incr next_id;
  id

(* A span whose interval was measured elsewhere (in a child process). *)
let record ?parent name ~start ~stop =
  let parent = match parent with Some _ -> parent | None -> !current in
  recorded := { id = fresh (); name; start; stop; parent } :: !recorded

(* [within name f] runs [f id] inside a span named [name]; spans opened
   by [f] become its children. *)
let within name f =
  let parent = !current in
  let id = fresh () in
  current := Some id;
  let start = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      current := parent;
      recorded := { id; name; start; stop = Unix.gettimeofday (); parent } :: !recorded)
    (fun () -> f id)

(* The length of the first span named [name] that has closed. *)
let duration name =
  match List.find_opt (fun s -> s.name = name) (List.rev !recorded) with
  | Some s -> s.stop -. s.start
  | None -> invalid_arg ("Spans.duration: no span " ^ name)

let to_json () =
  let one s =
    Printf.sprintf "{\"id\": %d, \"name\": %s, \"start\": %s, \"end\": %s, \"parent\": %s}" s.id
      (Report.str s.name) (Report.num s.start) (Report.num s.stop)
      (match s.parent with Some p -> string_of_int p | None -> "null")
  in
  "[\n  " ^ String.concat ",\n  " (List.rev_map one !recorded) ^ "\n]\n"
