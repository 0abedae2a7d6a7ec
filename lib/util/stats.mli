(** Small statistics helpers used by the benchmark harness and the load
    generators: summary statistics over float samples. *)

val mean : float list -> float
(** Arithmetic mean. Requires a non-empty list. *)

val median : float list -> float
(** Median (average of the two middle elements for even lengths).
    Requires a non-empty list. *)

val percentile : float -> float list -> float
(** [percentile p samples] with [p] in [\[0,100\]], nearest-rank method.
    Requires a non-empty list. *)

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
(** One-shot summary of a sample set. [p999] is the 99.9th percentile —
    for open-loop serving runs the tail beyond p99 is the whole point. *)

val summarize_array : float array -> summary
(** Compute all summary fields in one pass over a sorted copy (the
    input is untouched). [stddev] is the population standard deviation.
    Requires a non-empty array. *)

(** {1 Named monotonic counters}

    A tiny process-wide counter registry used for cross-cutting event
    tallies (the follower-lifecycle transition counters are the first
    client). Counters are created on first use and survive across
    sessions in the same process until {!remove_scope} or
    {!clear_registry} drops them. *)

type counter

val counter : string -> counter
(** Find or create the counter with this name. *)

val scoped_name : ?scope:string -> string -> string
(** [scoped_name ~scope:"shard0" "lifecycle.respawns"] is
    ["shard0.lifecycle.respawns"]; without a scope the name is returned
    unchanged. Shards use this to keep their counters apart in the
    process-wide registry. *)

val scoped_counter : ?scope:string -> string -> counter
(** [counter (scoped_name ?scope name)]. *)

val incr_counter : counter -> unit
val add_counter : counter -> int -> unit
val counter_value : counter -> int
val counter_name : counter -> string

val counters : unit -> (string * int) list
(** Every registered counter with its current value, sorted by name. *)

(** {1 Registry hygiene and export} *)

val remove_scope : string -> unit
(** Drop every counter whose name starts with [scope ^ "."] from the
    registry, so a harness that launches hundreds of scoped sessions per
    process can keep dead scopes from accumulating.
    A handle to a dropped counter still tallies but is no longer
    exported. *)

val clear_registry : unit -> unit
(** Drop every counter registration. *)

val json_escape : string -> string
(** Escape a string for a JSON string literal: quote, backslash,
    newline, and other control characters as [\u00XX]. The one escaper
    behind every JSON file the program writes (stats, traces,
    post-mortem bundles, bench records). *)

val dump_json : unit -> string
(** Every registered counter, as one JSON object
    [{"counters": {name: value, ...}}]. *)

val dump_json_to : string -> unit
(** Write {!dump_json} to a file. *)
