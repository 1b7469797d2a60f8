(** The resident engine behind [bonsai serve].

    Holds one registry of warm compressed networks under one LRU bound —
    each an [Incr.state]: the per-class results plus the
    policy-signature cache — and answers protocol requests against them.
    Sequential by design (the BDD manager is shared mutable state):
    request isolation comes from per-request budgets, not threads.
    {!handle_line} is total — any byte sequence in, exactly one typed
    NDJSON response line out; nothing a client sends can crash the
    engine.

    Ops: [compress], [lint], [flow], [diff], [dataplane-diff],
    [faults], [harden], [load], [unload], [audit], [health], [stats],
    [shutdown]. Every analysis op answers with the CLI's [--format json]
    document, from the library encoder both front ends print, after the
    envelope ([id], [op], [ok], [network], plus [to] for the two diffs);
    [lint] with the CLI's findings plus [count] and [errors]. A [file:]
    network keeps its source-line table on its registry entry (replaced
    by a [diff]'s [to] file, saved in checkpoints), so findings carry the
    CLI's lines. [unload] drops a network's entry. No document carries
    wall-clock or cache counters, so a warm answer equals a cold one
    byte for byte. A request may carry only [id], [op] and the
    parameters its op reads; any other key is a bad-request naming it.

    Admission: wherever a state enters or changes (cold load, [diff]), a
    degraded state — a compression that fell back to identity — is
    never kept, so warm answers are always exact; [compress], [load] and
    [diff] answer it [budget-exceeded]. A degraded [diff] leaves the
    entry at its pre-diff network.

    Self-audit: warm answers come from cached state — an engine bug, a
    bad incremental-reuse decision or adopted checkpoint bytes could
    make every later answer for that network wrong. The [audit] op (and
    the background {!audit_step} the server loop runs while idle)
    re-exports each warm class's certificate and re-checks it with
    {!Certify.check_summary} in a fresh BDD universe; a refuted network
    is {e quarantined} — evicted from the registry, an incident queued
    for {!drain_incidents}, the next request rebuilds cold from the
    configs. A failed audit can therefore cost latency, never a wrong
    answer. [test-corrupt] (only with [BONSAI_TEST_HOOKS=1] in the
    environment) corrupts a warm abstraction in place so the chaos
    suite can prove exactly that. *)

type t

val create :
  ?resolve:(string -> Device.network) ->
  ?budget_ms:int ->
  ?budget_ticks:int ->
  ?max_networks:int ->
  unit ->
  t
(** [resolve] maps a network spec (e.g. ["fattree:4"], ["file:PATH"])
    to a network; it may raise [Failure] (→ bad-request) or
    [Bonsai_error.Error] (→ the matching typed response). The default
    resolves through {!Synthesis.of_spec}: an unknown spec is a
    [Failure], an unparsable file a [Parse_error], and a [file:] spec
    also yields its source-line table. A custom [resolve] yields none.
    [budget_ms]/[budget_ticks] are server-wide caps: every request runs
    under [Budget.scoped] of its own ["budget_ms"]/["budget_ticks"]
    parameters clamped by these. [max_networks] (default 8) bounds the
    registry, LRU-evicting beyond it. *)

val handle_line :
  t -> queue_depth:int -> string -> string * [ `Continue | `Shutdown ]
(** Process one request line; returns the response line (no trailing
    newline) and whether the server should keep running. Total.
    [queue_depth] is echoed into [health]/[stats] responses. *)

val op_names : string list
(** The ops {!handle_line} answers, in a fixed order: the list its
    dispatch looks ops up in, and the one the CLI's [serve] and
    [request] help text print. *)

val note_shed : t -> unit
(** Count a request shed by the admission queue (the scheduler lives in
    the server loop; the engine only keeps the statistic). *)

val networks : t -> int
(** Warm networks in the registry. *)

val requests : t -> int

type audit_outcome =
  | Audit_idle  (** nothing warm to audit *)
  | Audit_clean of string  (** network audited, certificate held *)
  | Audit_unfinished of string
      (** audit budget ran out mid-network — retried at the next idle
          moment, never reported clean *)
  | Audit_quarantined of string * string
      (** (network, detail): certificate refuted; entry evicted *)

val audit_step : ?budget:Budget.t -> t -> audit_outcome
(** Audit the next warm network in round-robin order ([Sample]
    granularity). The server loop calls this while idle whenever
    {!audit_pending}. *)

val audit_pending : t -> bool
(** Warm state changed (admit, diff, restore) since the last complete
    self-audit cycle. *)

val drain_incidents : t -> (string * string) list
(** Quarantine incidents ((network, detail), oldest first) not yet
    collected — the server loop logs each as a structured incident line
    and rewrites the checkpoint so the corrupt state cannot return. *)

val checkpoint : t -> path:string -> (int, string) result
(** Atomically persist every registered network's warm state; returns
    how many were saved. *)

val restore :
  t ->
  path:string ->
  [ `Restored of int
  | `Missing
  | `Version_skew of string
  | `Corrupt of string ]
(** Load a checkpoint written by {!checkpoint}, re-arming each state's
    transient handles and scheduling a self-audit cycle over the
    adopted entries. Failures degrade to a cold start, distinguished so
    the caller can log them apart: [`Missing] (no file),
    [`Version_skew] (format or build mismatch), [`Corrupt] (bad magic,
    torn write, digest mismatch). Never an exception. *)
