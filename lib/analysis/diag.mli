(** Lint diagnostics.

    Every semantic check over a {!Device.network} reports its findings as
    a list of diagnostics: which check fired, how severe it is, where in
    the configuration it points, and a human-readable message. Locations
    are structural (router, route-map, clause, ACL interface) with an
    optional source line filled in when the network was loaded from a
    configuration file ({!Config_text.parse_with_locs}). *)

type severity = Error | Warning | Info

val severity_rank : severity -> int
(** [Error] = 2, [Warning] = 1, [Info] = 0. *)

val severity_to_string : severity -> string

type loc = {
  router : string option;  (** node name the finding is attached to *)
  neighbor : string option;  (** the interface / session peer, if any *)
  rm_name : string option;  (** route-map name (text-loaded networks) *)
  clause : int option;  (** 0-based clause / ACL-rule index *)
  line : int option;  (** 1-based source line (text-loaded networks) *)
}

val no_loc : loc
val at_router : ?neighbor:string -> ?line:int -> string -> loc

type t = {
  check : string;  (** the check's stable identifier, kebab-case *)
  severity : severity;
  loc : loc;
  message : string;
}

val make :
  check:string -> severity:severity -> ?loc:loc -> string -> t

val compare : t -> t -> int
(** The deterministic report order: source line first (diagnostics without
    a line sort last), then check id, then descending severity, then the
    remaining location fields and the message. Total — equal only for
    identical diagnostics — so report output is stable across runs. *)

val pp : Format.formatter -> t -> unit
(** One line: [severity: [check] location: message]. *)

val list_to_json : t list -> Json.t
(** The findings array both front ends print, in list order: one object
    per diagnostic (stable field order; absent location fields are
    omitted; [clause] is 1-based, as in {!pp}). *)
