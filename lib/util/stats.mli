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

(** {1 JSON export} *)

val json_escape : string -> string
(** Escape a string for a JSON string literal: quote, backslash,
    newline, and other control characters as [\u00XX]. The one escaper
    behind every JSON file the program writes (stats, traces,
    post-mortem bundles, bench records). *)

val counters_json : (string * int) list -> string
(** Named counts as one JSON object [{"counters": {name: value, ...}}],
    sorted by name. The counts belong to their owners (a session's
    lifecycle report, a router's stats, ...); this only writes them. *)
