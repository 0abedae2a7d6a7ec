(* Per-shard flight recorder.

   A small ring of recent noteworthy events (ring stalls, publishes of
   interest, bridge epochs, watchdog verdicts), the full lifecycle
   transition history, the last known bridge/link state and the newest
   checkpoint position — always on, overwrite-oldest, a few field
   stores per note. When something goes wrong (the oracle flags
   divergence, a follower is quarantined or killed, a session degrades)
   the whole thing is dumped as a self-contained post-mortem JSON
   bundle, rr-style: enough context to localize the failure without
   rerunning the workload.

   Each session creates its own recorder and names it by its scope
   ("shard3", or "" for an unscoped session), so a sharded deployment
   gets one black box per shard and two sessions never share one. A
   bundle lists only the counters its session passes to [dump]. *)

module Stats = Varan_util.Stats

type entry = {
  ev_at : int64; (* engine vtime, cycles *)
  ev_lamport : int;
  ev_tag : string; (* short machine-greppable category, e.g. "ring.stall" *)
  ev_detail : string;
}

type transition = {
  tr_at : int64;
  tr_idx : int; (* variant index *)
  tr_from : string;
  tr_to : string;
  tr_reason : string;
}

type t = {
  fl_scope : string;
  cap : int;
  ring : entry array;
  mutable total : int; (* events ever recorded; ring slot = total mod cap *)
  mutable transitions : transition list; (* reversed *)
  mutable n_transitions : int;
  mutable link : string; (* last reported bridge/link state *)
  mutable checkpoint_seq : int; (* newest checkpoint seq; -1 = none *)
}

let dummy = { ev_at = 0L; ev_lamport = 0; ev_tag = ""; ev_detail = "" }

(* Transition history is complete up to this bound; a session whose
   followers flap thousands of times keeps the newest window. *)
let max_transitions = 512

let create ?(capacity = 64) scope =
  {
    fl_scope = scope;
    cap = capacity;
    ring = Array.make capacity dummy;
    total = 0;
    transitions = [];
    n_transitions = 0;
    link = "";
    checkpoint_seq = -1;
  }

let record t ~at ?(lamport = 0) tag detail =
  t.ring.(t.total mod t.cap) <-
    { ev_at = at; ev_lamport = lamport; ev_tag = tag; ev_detail = detail };
  t.total <- t.total + 1

let transition t ~at ~idx ~from_ ~to_ ~reason =
  t.transitions <-
    { tr_at = at; tr_idx = idx; tr_from = from_; tr_to = to_;
      tr_reason = reason }
    :: (if t.n_transitions >= max_transitions then
          List.filteri (fun i _ -> i < max_transitions - 1) t.transitions
        else t.transitions);
  t.n_transitions <- min (t.n_transitions + 1) max_transitions

let set_link t state = t.link <- state
let note_checkpoint t seq = if seq > t.checkpoint_seq then t.checkpoint_seq <- seq
let checkpoint_seq t = t.checkpoint_seq

(* Newest-last window of the event ring. *)
let entries t =
  let n = min t.total t.cap in
  List.init n (fun i -> t.ring.((t.total - n + i) mod t.cap))

let transitions t = List.rev t.transitions

(* ------------------------------------------------------------------ *)
(* Post-mortem bundles                                                 *)
(* ------------------------------------------------------------------ *)

(* Dumps are opt-in: torture sweeps quarantine followers on purpose
   hundreds of times per run, and only the harness knows which deaths
   are unexpected. Directed tests and `varan serve/run` arm this flag
   (or call [dump] themselves, pull-style). *)
let dump_enabled = ref false
let dump_dir = ref "."
let serial = ref 0
let last_dump : string option ref = ref None

let dump t ~at ~reason ~counters =
  incr serial;
  let scope_part = if t.fl_scope = "" then "session" else t.fl_scope in
  let path =
    Filename.concat !dump_dir
      (Printf.sprintf "postmortem-%s-%d.json" scope_part !serial)
  in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"scope\": \"%s\",\n  \"reason\": \"%s\",\n"
    (Stats.json_escape t.fl_scope) (Stats.json_escape reason);
  Printf.fprintf oc "  \"at\": %Ld,\n" at;
  Printf.fprintf oc "  \"events_recorded\": %d,\n" t.total;
  Printf.fprintf oc "  \"checkpoint_seq\": %d,\n" t.checkpoint_seq;
  Printf.fprintf oc "  \"link\": \"%s\",\n" (Stats.json_escape t.link);
  output_string oc "  \"events\": [\n";
  let es = entries t in
  let n = List.length es in
  List.iteri
    (fun i e ->
      Printf.fprintf oc
        "    {\"at\": %Ld, \"lamport\": %d, \"tag\": \"%s\", \"detail\": \
         \"%s\"}%s\n"
        e.ev_at e.ev_lamport (Stats.json_escape e.ev_tag)
        (Stats.json_escape e.ev_detail)
        (if i = n - 1 then "" else ","))
    es;
  output_string oc "  ],\n  \"transitions\": [\n";
  let trs = transitions t in
  let n = List.length trs in
  List.iteri
    (fun i tr ->
      Printf.fprintf oc
        "    {\"at\": %Ld, \"idx\": %d, \"from\": \"%s\", \"to\": \"%s\", \
         \"reason\": \"%s\"}%s\n"
        tr.tr_at tr.tr_idx (Stats.json_escape tr.tr_from)
        (Stats.json_escape tr.tr_to)
        (Stats.json_escape tr.tr_reason)
        (if i = n - 1 then "" else ","))
    trs;
  output_string oc "  ],\n  \"counters\": {\n";
  let counters = List.sort compare counters in
  let n = List.length counters in
  List.iteri
    (fun i (name, v) ->
      Printf.fprintf oc "    \"%s\": %d%s\n" (Stats.json_escape name) v
        (if i = n - 1 then "" else ","))
    counters;
  output_string oc "  }\n}\n";
  close_out oc;
  last_dump := Some path;
  path
