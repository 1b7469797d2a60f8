(** Versioned, checksummed, atomically-published state checkpoints.

    {!save} writes a header (format version, digest of the running
    executable, payload MD5, payload length) plus a [Marshal] payload to
    a temp file and atomically renames it into place: a crash — up to
    and including [kill -9] mid-write — can never tear the published
    file, only leave a stale temp behind. {!load} re-verifies everything
    before touching [Marshal]: corruption and truncation are detected by
    checksum/length, and a checkpoint written by a {e different build}
    is rejected as version skew without reading the payload (unmarshaling
    foreign bytes is undefined behavior, not just an error). Every
    failure is a value; callers degrade to a cold rebuild.

    The payload type is the caller's ('a is not checked beyond the build
    digest — which pins the exact binary and therefore the exact type
    layout); keep one payload type per path. *)

type load_error =
  | Missing  (** no file at the path (first boot) *)
  | Version_skew of string
      (** written by another build or format version; payload not read *)
  | Corrupt of string  (** torn, truncated, or checksum-mismatched *)

val pp_load_error : Format.formatter -> load_error -> unit

val save : path:string -> 'a -> (unit, string) result
(** Serialize, write [path.<pid>.tmp], fsync it, rename to [path], fsync
    the containing directory — so the published checkpoint survives a
    power loss immediately after the call, not just a process crash. On
    [Error] the previously published checkpoint (if any) is untouched. *)

val sync_count : unit -> int
(** Cumulative fsyncs issued by {!save} in this process (temp file +
    directory per successful save). Exists so the test suite can assert
    the durability path is exercised — a save that skipped straight to
    rename would leave this unchanged. *)

val load : path:string -> ('a, load_error) result
