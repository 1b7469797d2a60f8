(** The server loop of [bonsai serve]: transports, admission, drain.

    Wraps a {!Serve_engine.t} in one of three transports — stdio
    (deterministic, for golden tests and piping), a unix-domain socket,
    or TCP — with a bounded admission queue in front ({!Scheduler}):
    requests beyond [max_inflight] receive a typed overloaded response
    instead of unbounded buffering. [health] and [stats] bypass the
    queue, so an overloaded server still answers its control plane.

    SIGTERM, SIGINT, and the [shutdown] op drain: queued requests get
    2 s to finish, stragglers are answered with
    overloaded("server draining"), warm state is checkpointed (when
    [checkpoint_path] is set; also every [checkpoint_every] requests),
    and {!run} returns 0. Diagnostics go to stderr; stdout carries only
    protocol lines in stdio mode. *)

type listen = Stdio | Unix_socket of string | Tcp of string * int

val run :
  engine:Serve_engine.t ->
  listen:listen ->
  ?max_inflight:int ->
  ?checkpoint_path:string ->
  ?checkpoint_every:int ->
  unit ->
  int
(** Serve until shutdown; returns the process exit code. When
    [checkpoint_path] is set, warm state is restored from it before the
    first request (corruption or version skew logs a warning and serves
    cold — exit stays 0). *)
