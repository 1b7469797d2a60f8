(** A textual format for vendor-independent configurations.

    Networks can be written to and read from a single self-contained text
    file, playing the role of the configuration directories Batfish parses
    for the real Bonsai. The format has three kinds of sections:

    {v
    topology
      node <name>
      link <name> <name>

    route-map <NAME>
      <seq> permit|deny
        match community <c> [<c> ...]
        match prefix <a.b.c.d/len> [...]
        set local-pref <n>
        set med <n>
        set community add <c>
        set community delete <c>

    router <name>
      ospf area <n>
      ospf link <neighbor> cost <n> [area <n>]
      bgp neighbor <neighbor> [ibgp] [import <RM>] [export <RM>]
      static <prefix> via <neighbor>
      acl out <neighbor>
        permit|deny <prefix>
      originate <prefix>
      redistribute ospf-into-bgp|static-into-bgp|bgp-into-ospf
    v}

    Communities are written either as plain integers or Cisco-style
    [asn:value] pairs (encoded as [asn * 65536 + value]). Lines starting
    with [#] are comments. Printing then parsing yields a structurally
    identical network (checked by the test suite). *)

val print : Device.network -> string
(** Render a network. Identical route-maps are shared under one name. *)

val parse : string -> (Device.network, string) result
(** Parse a network. The parser does not stop at the first problem: it
    recovers at the next section header and collects up to 20 diagnostics
    (see {!parse_full}); the error string joins them, one ["line N: msg"]
    per line. *)

val load : string -> (Device.network, string) result
(** Read and parse a file, or a directory read as one network: its
    [*.cfg] and [*.conf] files in name order, joined with a newline. Line
    numbers count through the joined text. *)

(** {1 Source locations}

    [Device.network] keeps no syntax, so diagnostics over a parsed network
    would otherwise only name nodes. [parse_with_locs] additionally returns
    a side table mapping router stanzas, route-map names, and individual
    clauses back to 1-based source lines; the lint engine threads it
    through to report [file:line] positions. *)

type rm_loc = {
  rm_line : int;  (** line of the [route-map NAME] header *)
  clause_lines : int array;
      (** line of each clause header, in final (seq-sorted) clause order *)
}

type loc_table = {
  router_lines : (string * int) list;  (** router name -> stanza line *)
  route_maps : (string * rm_loc) list;  (** route-map name -> location *)
  rm_names : (Route_map.t * string) list;
      (** parsed route-map value -> its name (first definition wins) *)
}

val router_line : loc_table -> string -> int option
val rm_name_of : loc_table -> Route_map.t -> string option
val rm_loc : loc_table -> string -> rm_loc option

val clause_line : loc_table -> string -> int -> int option
(** [clause_line locs name i] is the source line of the [i]-th (0-based,
    seq-sorted) clause of the named route-map. *)

val parse_with_locs : string -> (Device.network * loc_table, string) result

val parse_full :
  string -> (Device.network * loc_table, (int * string) list) result
(** Like {!parse_with_locs} but with structured diagnostics: each is a
    (1-based line, message) pair — line 0 for file-level problems — in
    source order, at most 20 per file. Scan-level errors skip the rest of
    the offending section and resume at the next unindented section
    header; name-resolution errors are collected per line. Never raises. *)

val load_full :
  string -> (Device.network * loc_table, (int * string) list) result
(** Read and {!parse_full} a file or a directory, as {!load} reads them;
    an unreadable file, or a directory without a configuration file, is
    a single line-0 diagnostic. *)

val save : path:string -> Device.network -> unit

val community_to_string : int -> string
(** Cisco-style [asn:value] when the value is >= 65536, decimal
    otherwise. *)

val community_of_string : string -> int option
