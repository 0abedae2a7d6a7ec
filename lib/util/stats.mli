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

val stddev : float list -> float
(** Population standard deviation. Requires a non-empty list. *)

val min_max : float list -> float * float
(** Smallest and largest sample. Requires a non-empty list. *)

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

val summarize : float list -> summary
(** Compute all summary fields in one pass over a sorted copy.
    Requires a non-empty list. *)

val summarize_array : float array -> summary
(** Same over an array (sorts a copy; input untouched). Requires a
    non-empty array. Preferred at million-sample scale — no cons cells. *)

val pp_summary : Format.formatter -> summary -> unit

val summary_to_string : summary -> string

(** {1 Named monotonic counters}

    A tiny process-wide counter registry used for cross-cutting event
    tallies (the follower-lifecycle transition counters are the first
    client). Counters are created on first use and survive across
    sessions in the same process; {!reset_counters} zeroes them (a sweep
    harness resets between seeds when it wants per-seed totals). *)

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

val reset_counters : unit -> unit
(** Zero every registered counter (registrations persist). *)

(** {1 Log-bucketed histograms}

    Fixed-size (64-bucket) HDR-style histograms: three buckets per
    power-of-two octave (~26% relative resolution), an underflow bucket
    for values below 1 and a clamp above [2{^21}]. Recording is O(1)
    and allocation-free; memory is constant regardless of sample count,
    so unbounded sample streams (per-request latencies over millions of
    requests) can keep percentile estimates without keeping samples. *)

type hist
(** A histogram instance. *)

val hist_buckets : int
(** Number of buckets (64). *)

val make_hist : string -> hist
(** A fresh, unregistered histogram. *)

val hist : ?scope:string -> string -> hist
(** Find or create the registered histogram named
    [scoped_name ?scope name] in the process-wide registry (the
    histogram analogue of {!scoped_counter}). *)

val hist_record : hist -> float -> unit
(** Record one sample (negatives clamp to 0). *)

val hist_count : hist -> int
val hist_name : hist -> string

val hist_clear : hist -> unit
(** Zero all buckets and moments (the registration persists). *)

val hist_percentile : hist -> float -> float
(** [hist_percentile h p] estimates the [p]-th percentile ([p] in
    [\[0,100\]]) as the midpoint of the bucket the nearest-rank falls
    in, clamped to the observed min/max. 0 on an empty histogram. *)

val hist_summary : hist -> summary option
(** Summary from the histogram's exact moments (n, mean, stddev, min,
    max) and bucket-estimated percentiles; [None] when empty. *)

val bucket_of_value : float -> int
(** Bucket index a value lands in (exposed for tests). *)

val bucket_bounds : int -> float * float
(** [lo, hi) bounds of a bucket (exposed for tests). *)

val hists : unit -> (string * hist) list
(** Every registered histogram, sorted by name. *)

(** {1 Registry hygiene and export} *)

val remove_scope : string -> unit
(** Remove every counter and histogram whose name starts with
    [scope ^ "."] from the registries. Unlike {!reset_counters} this
    drops the registrations: a harness that launches hundreds of scoped
    sessions per process calls this between cases so dead scopes do not
    accumulate. *)

val clear_registry : unit -> unit
(** Drop every counter and histogram registration. *)

val json_escape : string -> string
(** Escape a string for a JSON string literal: quote, backslash,
    newline, and other control characters as [\u00XX]. The one escaper
    behind every JSON file the program writes (stats, traces,
    post-mortem bundles, bench records). *)

val dump_json : unit -> string
(** The whole registry — every counter and every histogram (count,
    moments, percentile estimates, non-empty buckets as
    [\[index, count\]] pairs) — as one JSON object. *)

val dump_json_to : string -> unit
(** Write {!dump_json} to a file. *)
