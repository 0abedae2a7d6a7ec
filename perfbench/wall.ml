(* Wall-clock time and the benchmark's own span recorder.

   The spans are the benchmark's, recorded around its calls into the
   program (setup, launch, run, check) and around the two per-request
   hooks the benchmark owns (the router lookup in its [port_of] and the
   request encoding in its [request_of]). They are kept in memory and
   written as Chrome trace JSON when the traced run ends. Recording is
   off unless [enabled] is set, so the untraced runs pay one branch. *)

let now () = Monotonic_clock.now ()
let ns_since t0 = Int64.to_float (Int64.sub (now ()) t0)

let enabled = ref false

let cap = 1 lsl 17
let names = Array.make cap ""
let starts = Array.make cap 0L
let ends = Array.make cap 0L
let len = ref 0
let dropped = ref 0

(* Per-name totals survive a full buffer, so the per-call averages the
   traced run reports never depend on the buffer size. *)
let totals : (string, int ref * float ref) Hashtbl.t = Hashtbl.create 16

let reset () =
  len := 0;
  dropped := 0;
  Hashtbl.reset totals

let record name t0 t1 =
  (match Hashtbl.find_opt totals name with
  | Some (n, ns) ->
    incr n;
    ns := !ns +. Int64.to_float (Int64.sub t1 t0)
  | None -> Hashtbl.replace totals name (ref 1, ref (Int64.to_float (Int64.sub t1 t0))));
  if !len < cap then begin
    names.(!len) <- name;
    starts.(!len) <- t0;
    ends.(!len) <- t1;
    incr len
  end
  else incr dropped

let span name f =
  if not !enabled then f ()
  else begin
    let t0 = now () in
    let r = f () in
    record name t0 (now ());
    r
  end

(* Mean ns per call of a span name; 0 when it never ran. *)
let mean_ns name =
  match Hashtbl.find_opt totals name with
  | Some (n, ns) -> !ns /. float_of_int !n
  | None -> 0.0

let write_chrome_json path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  output_string oc
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"perfbench (wall clock)\"}}";
  (* Spans are stored as they end, so an enclosing span follows its
     children: the earliest start is the time origin. *)
  let base = ref Int64.max_int in
  for i = 0 to !len - 1 do
    if starts.(i) < !base then base := starts.(i)
  done;
  let base = !base in
  for i = 0 to !len - 1 do
    Printf.fprintf oc
      ",\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1}"
      names.(i)
      (Int64.to_float (Int64.sub starts.(i) base) /. 1e3)
      (Int64.to_float (Int64.sub ends.(i) starts.(i)) /. 1e3)
  done;
  if !dropped > 0 then
    Printf.fprintf oc
      ",\n{\"name\":\"span-buffer-full: %d spans dropped\",\"ph\":\"i\",\"ts\":0,\"pid\":1,\"tid\":1,\"s\":\"g\"}"
      !dropped;
  output_string oc "\n]}\n";
  close_out oc
