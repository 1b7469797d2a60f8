(** The linter: every semantic configuration check, in one pass.

    Checks are semantic, not syntactic: route-map and ACL reachability are
    decided over a BDD encoding of the match conditions ({!Cond_bdd}), so
    a clause shadowed only by the {e union} of earlier clauses — invisible
    to pairwise syntactic comparison — is still found, and a clause that
    merely {e looks} redundant but is reachable is never flagged. *)

val checks : (string * string) list
(** Every check's (name, one-line description), in report order. *)

val run : ?locs:Config_text.loc_table -> Device.network -> Diag.t list
(** Run every check; diagnostics in the deterministic report order of
    {!Diag.compare} — source line first, then check id — so output is
    stable across runs and machines. [locs] (from
    {!Config_text.parse_with_locs}) adds source line numbers. The
    whole-network provenance checks are {!Lint_flow}'s, run by
    [bonsai flow]. *)

val filter : min_severity:Diag.severity -> Diag.t list -> Diag.t list
val has_errors : Diag.t list -> bool

val pp_text : Format.formatter -> Diag.t list -> unit
(** One line per diagnostic plus a summary count line. *)

