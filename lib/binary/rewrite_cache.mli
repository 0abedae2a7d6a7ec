(** Content-addressed cache of prepared (rewritten) code images.

    The paper rewrites each image once, when it is loaded (§3.2); the
    reproduction additionally spawns the same image many times — one
    variant per replica, a fresh incarnation per lifecycle respawn, and
    forked children — and a full rewrite costs ~450 ring cycles for a
    30 kB text. This cache amortises that: entries are keyed by a digest
    of the {e original} code bytes (plus the rewriter version, so a
    rewriter change invalidates everything), and store the
    {!Rewriter.relocatable} form — rewritten text with base-relative
    [Hook] ids, the trampoline offset table and a base-relative site
    table. A hit {!Rewriter.rebase}s the cached entry to the requested
    [first_site_id] in O(sites) — no disassembly, no window collection,
    no stub emission.

    The resident zygote owns the session's cache (see {!Varan_nvx.Zygote}):
    it outlives every variant incarnation, so respawned followers and
    additional replicas of the same image always rebase instead of
    re-rewriting.

    Hits, misses and rebases are mirrored into the process-wide
    {!Varan_util.Stats} counters [rewrite_cache.hits] /
    [rewrite_cache.misses] / [rewrite_cache.rebases]. *)

type t

val version : string
(** Rewriter-output version mixed into every key. *)

val create : ?capacity:int -> unit -> t
(** A cache holding at most [capacity] (default 64) distinct images;
    insertion beyond that evicts in FIFO order. *)

val prepare : t -> ?first_site_id:int -> Bytes.t -> Rewriter.result
(** [prepare t ~first_site_id code] returns the rewritten image with
    absolute site ids starting at [first_site_id]: a cold rewrite on the
    first sighting of these code bytes, a rebase of the cached
    relocatable afterwards. The result is freshly allocated either way —
    callers may patch it into a segment without aliasing the cache. *)

val prepare_segment :
  t -> ?first_site_id:int -> Image.segment -> Rewriter.site list * Rewriter.stats
(** {!prepare} applied to an executable segment in place under
    {!Image.with_writable}, mirroring {!Rewriter.rewrite_segment}. *)

type stats = {
  hits : int;  (** served by rebasing a cached entry *)
  misses : int;  (** cold rewrites (entry then cached) *)
  rebases : int;  (** rebase passes run on cache hits *)
  evictions : int;
  entries : int;
  cached_bytes : int;  (** rewritten-text bytes currently held *)
}

val stats : t -> stats
