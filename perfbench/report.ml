(* JSON text, order statistics, and the host record. *)

let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"
let arr items = "[" ^ String.concat ", " items ^ "]"

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile, by linear interpolation between order
   statistics. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  let at p =
    if n = 0 then nan
    else
      let x = p *. float_of_int (n - 1) in
      let i = int_of_float x in
      let f = x -. float_of_int i in
      if i + 1 < n then a.(i) +. (f *. (a.(i + 1) -. a.(i))) else a.(i)
  in
  (at 0.25, at 0.75)

(* The commit of the checkout, or "unknown" outside a git work tree or
   without git. *)
let commit () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, sha when sha <> "" -> sha
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

let host () =
  [
    ("cores", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", str Sys.ocaml_version);
    ("commit", str (commit ()));
  ]

let out_dir = ".perfbench"

let write name contents =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let path = Filename.concat out_dir name in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path
