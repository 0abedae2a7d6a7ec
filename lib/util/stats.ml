let mean xs =
  assert (xs <> []);
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let median_sorted a =
  let n = Array.length a in
  assert (n > 0);
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let median xs = median_sorted (Array.of_list (List.sort compare xs))

let percentile_sorted p a =
  let n = Array.length a in
  assert (n > 0);
  if p <= 0.0 then a.(0)
  else if p >= 100.0 then a.(n - 1)
  else begin
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let percentile p xs = percentile_sorted p (Array.of_list (List.sort compare xs))

type summary = {
  n : int;
  mean : float;
  median : float;
  stddev : float;
  min : float;
  max : float;
  p95 : float;
  p99 : float;
  p999 : float;
}

let summarize_array a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  assert (n > 0);
  let mean = Array.fold_left ( +. ) 0.0 a /. float_of_int n in
  let sq =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 a
  in
  {
    n;
    mean;
    median = median_sorted a;
    stddev = sqrt (sq /. float_of_int n);
    min = a.(0);
    max = a.(n - 1);
    p95 = percentile_sorted 95.0 a;
    p99 = percentile_sorted 99.0 a;
    p999 = percentile_sorted 99.9 a;
  }

(* ------------------------------------------------------------------ *)
(* Named monotonic counters                                            *)
(* ------------------------------------------------------------------ *)

type counter = { c_name : string; mutable c_value : int }

let registry : (string, counter) Hashtbl.t = Hashtbl.create 16

let counter name =
  match Hashtbl.find_opt registry name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_value = 0 } in
    Hashtbl.replace registry name c;
    c

let scoped_name ?scope name =
  match scope with None -> name | Some s -> s ^ "." ^ name

let scoped_counter ?scope name = counter (scoped_name ?scope name)
let incr_counter c = c.c_value <- c.c_value + 1
let add_counter c n = c.c_value <- c.c_value + n
let counter_value c = c.c_value
let counter_name c = c.c_name

let counters () =
  Hashtbl.fold (fun name c acc -> (name, c.c_value) :: acc) registry []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Registry hygiene and export                                         *)
(* ------------------------------------------------------------------ *)

(* A harness that launches hundreds of scoped sessions per process needs
   to drop the dead scopes, or every dump grows monotonically and shows
   shards that no longer exist. *)
let remove_scope scope =
  let prefix = scope ^ "." in
  let plen = String.length prefix in
  Hashtbl.fold
    (fun name _ acc ->
      if String.length name >= plen && String.sub name 0 plen = prefix then
        name :: acc
      else acc)
    registry []
  |> List.iter (Hashtbl.remove registry)

let clear_registry () = Hashtbl.reset registry

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Machine-readable export of every counter as one JSON object. *)
let dump_json () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"counters\": {\n";
  let cs = counters () in
  let n = List.length cs in
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string b
        (Printf.sprintf "    \"%s\": %d%s\n" (json_escape name) v
           (if i = n - 1 then "" else ",")))
    cs;
  Buffer.add_string b "  }\n}\n";
  Buffer.contents b

let dump_json_to path =
  let oc = open_out path in
  output_string oc (dump_json ());
  close_out oc
