let community_to_string c =
  if c >= 65536 then Printf.sprintf "%d:%d" (c lsr 16) (c land 0xFFFF)
  else string_of_int c

let community_of_string s =
  match String.index_opt s ':' with
  | None -> int_of_string_opt s
  | Some i -> (
    let asn = String.sub s 0 i in
    let v = String.sub s (i + 1) (String.length s - i - 1) in
    match (int_of_string_opt asn, int_of_string_opt v) with
    | Some a, Some v when a >= 0 && v >= 0 && v < 65536 -> Some ((a lsl 16) lor v)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Printing                                                             *)
(* ------------------------------------------------------------------ *)

let print (net : Device.network) =
  let buf = Buffer.create 4096 in
  let g = net.Device.graph in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* Collect route-maps, sharing structurally identical ones. *)
  let rm_names : (Route_map.t, string) Hashtbl.t = Hashtbl.create 16 in
  let rm_order = ref [] in
  let name_of_rm rm =
    match Hashtbl.find_opt rm_names rm with
    | Some n -> n
    | None ->
      let n = Printf.sprintf "RM%d" (Hashtbl.length rm_names) in
      Hashtbl.replace rm_names rm n;
      rm_order := (n, rm) :: !rm_order;
      n
  in
  Array.iter
    (fun (r : Device.router) ->
      List.iter
        (fun (_, (nb : Device.bgp_neighbor)) ->
          Option.iter (fun rm -> ignore (name_of_rm rm)) nb.import_rm;
          Option.iter (fun rm -> ignore (name_of_rm rm)) nb.export_rm)
        r.bgp_neighbors)
    net.Device.routers;
  (* topology *)
  pr "topology\n";
  for v = 0 to Graph.n_nodes g - 1 do
    pr "  node %s\n" (Graph.name g v)
  done;
  List.iter
    (fun (u, v) ->
      if u < v || not (Graph.has_edge g v u) then
        pr "  link %s %s\n" (Graph.name g u) (Graph.name g v))
    (Graph.edges g);
  (* route-maps *)
  List.iter
    (fun (name, rm) ->
      pr "\nroute-map %s\n" name;
      List.iteri
        (fun i (cl : Route_map.clause) ->
          pr "  %d %s\n"
            (10 * (i + 1))
            (match cl.verdict with Route_map.Permit -> "permit" | Route_map.Deny -> "deny");
          List.iter
            (function
              | Route_map.Match_community cs ->
                pr "    match community %s\n"
                  (String.concat " " (List.map community_to_string cs))
              | Route_map.Match_prefix ps ->
                pr "    match prefix %s\n"
                  (String.concat " " (List.map Prefix.to_string ps)))
            cl.conds;
          List.iter
            (function
              | Route_map.Set_local_pref n -> pr "    set local-pref %d\n" n
              | Route_map.Set_med n -> pr "    set med %d\n" n
              | Route_map.Add_community c ->
                pr "    set community add %s\n" (community_to_string c)
              | Route_map.Delete_community c ->
                pr "    set community delete %s\n" (community_to_string c))
            cl.actions)
        rm)
    (List.rev !rm_order);
  (* routers *)
  Array.iteri
    (fun v (r : Device.router) ->
      pr "\nrouter %s\n" (Graph.name g v);
      if r.ospf_area <> 0 then pr "  ospf area %d\n" r.ospf_area;
      List.iter
        (fun (u, (l : Device.ospf_link)) ->
          pr "  ospf link %s cost %d%s\n" (Graph.name g u) l.cost
            (if l.area <> 0 then Printf.sprintf " area %d" l.area else ""))
        r.ospf_links;
      List.iter
        (fun (u, (nb : Device.bgp_neighbor)) ->
          pr "  bgp neighbor %s%s%s%s%s\n" (Graph.name g u)
            (if nb.ibgp then " ibgp" else "")
            (match nb.rel with
            | Device.Rel_unknown -> ""
            | rel -> " " ^ Device.relation_name rel)
            (match nb.import_rm with
            | Some rm -> " import " ^ name_of_rm rm
            | None -> "")
            (match nb.export_rm with
            | Some rm -> " export " ^ name_of_rm rm
            | None -> ""))
        r.bgp_neighbors;
      List.iter
        (fun (p, nh) ->
          pr "  static %s via %s\n" (Prefix.to_string p) (Graph.name g nh))
        r.static_routes;
      List.iter
        (fun (u, acl) ->
          pr "  acl out %s\n" (Graph.name g u);
          List.iter
            (fun (rule : Acl.rule) ->
              pr "    %s %s\n"
                (if rule.permit then "permit" else "deny")
                (Prefix.to_string rule.prefix))
            acl)
        r.acl_out;
      List.iter (fun p -> pr "  originate %s\n" (Prefix.to_string p)) r.originated;
      List.iter
        (fun rd ->
          pr "  redistribute %s\n"
            (match rd with
            | Multi.Ospf_into_bgp -> "ospf-into-bgp"
            | Multi.Static_into_bgp -> "static-into-bgp"
            | Multi.Bgp_into_ospf -> "bgp-into-ospf"))
        r.redistribute)
    net.Device.routers;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                              *)
(* ------------------------------------------------------------------ *)

exception Parse_error of int * string

let error line fmt = Printf.ksprintf (fun s -> raise (Parse_error (line, s))) fmt

let tokens line = String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

type section =
  | S_none
  | S_topology
  | S_route_map of string
  | S_router of string
  | S_skip
      (* a diagnostic was recorded in the current section; its remaining
         lines are ignored and parsing resumes at the next section header *)

type pending_clause = {
  pc_seq : int;
  pc_line : int;
  pc_verdict : Route_map.verdict;
  mutable pc_conds : Route_map.cond list;
  mutable pc_actions : Route_map.action list;
}

type rm_loc = { rm_line : int; clause_lines : int array }

type loc_table = {
  router_lines : (string * int) list;
  route_maps : (string * rm_loc) list;
  rm_names : (Route_map.t * string) list;
}


let router_line locs name = List.assoc_opt name locs.router_lines
let rm_name_of locs rm = List.assoc_opt rm locs.rm_names
let rm_loc locs name = List.assoc_opt name locs.route_maps

let clause_line locs name i =
  match rm_loc locs name with
  | Some l when i >= 0 && i < Array.length l.clause_lines ->
    Some l.clause_lines.(i)
  | _ -> None

let max_diagnostics = 20

let parse_full text =
  let lines = String.split_on_char '\n' text in
  (* Diagnostics, oldest first; capped so a hopeless file stays legible. *)
  let diags = ref [] and n_diags = ref 0 in
  let add_diag line msg =
    if !n_diags < max_diagnostics then begin
      diags := (line, msg) :: !diags;
      incr n_diags
    end
  in
  (* Mutable parse state. *)
  let nodes : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let node_order = ref [] in
  let links = ref [] in
  let route_maps : (string, int * pending_clause list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let rm_order = ref [] in
  (* Router bodies are stored raw and resolved once all nodes are known. *)
  let routers : (string * int * (int * string list) list) list ref = ref [] in
  let router_header = ref 0 in
  let section = ref S_none in
  let current_clauses : pending_clause list ref ref = ref (ref []) in
  let current_router : (int * string list) list ref = ref [] in
  let flush_router name =
    routers := (name, !router_header, List.rev !current_router) :: !routers;
    current_router := []
  in
  let close_section () =
    match !section with
    | S_router name -> flush_router name
    | S_none | S_topology | S_route_map _ | S_skip -> ()
  in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let line = String.trim raw in
      if line = "" || line.[0] = '#' then ()
      else
        try
           let indented = raw <> "" && (raw.[0] = ' ' || raw.[0] = '\t') in
           match (indented, tokens line) with
           | false, [ "topology" ] ->
             close_section ();
             section := S_topology
           | false, [ "route-map"; name ] ->
             close_section ();
             if Hashtbl.mem route_maps name then
               error lineno "duplicate route-map %s" name;
             let cls = ref [] in
             Hashtbl.replace route_maps name (lineno, cls);
             rm_order := name :: !rm_order;
             current_clauses := cls;
             section := S_route_map name
           | false, [ "router"; name ] ->
             close_section ();
             if not (Hashtbl.mem nodes name) then
               error lineno "router %s is not a topology node" name;
             router_header := lineno;
             section := S_router name
           | false, _ -> error lineno "unknown section: %s" line
           | true, toks -> (
             match !section with
             | S_skip -> ()
             | S_none -> error lineno "content before any section"
             | S_topology -> (
               match toks with
               | [ "node"; name ] ->
                 if Hashtbl.mem nodes name then
                   error lineno "duplicate node %s" name;
                 Hashtbl.replace nodes name (Hashtbl.length nodes);
                 node_order := name :: !node_order
               | [ "link"; a; b ] -> links := (lineno, a, b) :: !links
               | _ -> error lineno "bad topology line: %s" line)
             | S_route_map _ -> (
               let cls = !current_clauses in
               match toks with
               | [ seq; verdict ] -> (
                 match (int_of_string_opt seq, verdict) with
                 | Some seq, "permit" ->
                   cls :=
                     { pc_seq = seq; pc_line = lineno;
                       pc_verdict = Route_map.Permit;
                       pc_conds = []; pc_actions = [] }
                     :: !cls
                 | Some seq, "deny" ->
                   cls :=
                     { pc_seq = seq; pc_line = lineno;
                       pc_verdict = Route_map.Deny;
                       pc_conds = []; pc_actions = [] }
                     :: !cls
                 | _ -> error lineno "bad clause header: %s" line)
               | "match" :: "community" :: cs -> (
                 match !cls with
                 | [] -> error lineno "match before any clause"
                 | cl :: _ ->
                   let cs =
                     List.map
                       (fun s ->
                         match community_of_string s with
                         | Some c -> c
                         | None -> error lineno "bad community %s" s)
                       cs
                   in
                   if cs = [] then error lineno "empty community list";
                   cl.pc_conds <- Route_map.Match_community cs :: cl.pc_conds)
               | "match" :: "prefix" :: ps -> (
                 match !cls with
                 | [] -> error lineno "match before any clause"
                 | cl :: _ ->
                   let ps =
                     List.map
                       (fun s ->
                         match Prefix.of_string_opt s with
                         | Some p -> p
                         | None -> error lineno "bad prefix %s" s)
                       ps
                   in
                   if ps = [] then error lineno "empty prefix list";
                   cl.pc_conds <- Route_map.Match_prefix ps :: cl.pc_conds)
               | [ "set"; "local-pref"; n ] -> (
                 match (!cls, int_of_string_opt n) with
                 | cl :: _, Some n ->
                   cl.pc_actions <- Route_map.Set_local_pref n :: cl.pc_actions
                 | _ -> error lineno "bad set local-pref")
               | [ "set"; "med"; n ] -> (
                 match (!cls, int_of_string_opt n) with
                 | cl :: _, Some n ->
                   cl.pc_actions <- Route_map.Set_med n :: cl.pc_actions
                 | _ -> error lineno "bad set med")
               | [ "set"; "community"; "add"; c ] -> (
                 match (!cls, community_of_string c) with
                 | cl :: _, Some c ->
                   cl.pc_actions <- Route_map.Add_community c :: cl.pc_actions
                 | _ -> error lineno "bad set community add")
               | [ "set"; "community"; "delete"; c ] -> (
                 match (!cls, community_of_string c) with
                 | cl :: _, Some c ->
                   cl.pc_actions <-
                     Route_map.Delete_community c :: cl.pc_actions
                 | _ -> error lineno "bad set community delete")
               | _ -> error lineno "bad route-map line: %s" line)
             | S_router _ -> current_router := (lineno, toks) :: !current_router)
        with Parse_error (l, m) ->
          add_diag l m;
          (* drop the broken section: any router lines collected so far
             belong to a stanza we can no longer trust *)
          (match !section with
          | S_router _ -> current_router := []
          | _ -> ());
          section := S_skip)
    lines;
  close_section ();
  (* Scan errors leave nodes and route-maps incomplete; resolving against
     them would only pile up cascading "unknown name" noise. *)
  if !diags <> [] then Error (List.rev !diags)
  else begin
  (* Build the graph. *)
  let b = Graph.Builder.create () in
  List.iter (fun name -> ignore (Graph.Builder.add_node b name)) (List.rev !node_order);
  let node name lineno =
    match Hashtbl.find_opt nodes name with
    | Some v -> v
    | None -> error lineno "unknown node %s" name
  in
  List.iter
    (fun (lineno, a, bn) ->
      try Graph.Builder.add_link b (node a lineno) (node bn lineno) with
      | Parse_error (l, m) -> add_diag l m
      | Invalid_argument m -> add_diag lineno m (* e.g. a self-loop *))
    (List.rev !links);
  let g = Graph.Builder.build b in
  let sorted_clauses name lineno =
    match Hashtbl.find_opt route_maps name with
    | None -> error lineno "unknown route-map %s" name
    | Some (header, cls) ->
      ( header,
        List.rev !cls
        |> List.stable_sort (fun a b -> compare a.pc_seq b.pc_seq) )
  in
  let finished_rm name lineno =
    snd (sorted_clauses name lineno)
    |> List.map (fun pc ->
           {
             Route_map.verdict = pc.pc_verdict;
             conds = List.rev pc.pc_conds;
             actions = List.rev pc.pc_actions;
           })
  in
  (* Resolve router bodies. *)
  let router_arr =
    Array.init (Graph.n_nodes g) (fun v -> Device.default_router (Graph.name g v))
  in
  List.iter
    (fun (name, _header, body) ->
      let v = node name 0 in
      let r = ref router_arr.(v) in
      let acl_target = ref None in
      List.iter
        (fun (lineno, toks) ->
          try
          match toks with
          | [ "ospf"; "area"; n ] -> (
            match int_of_string_opt n with
            | Some n ->
              acl_target := None;
              r := { !r with Device.ospf_area = n }
            | None -> error lineno "bad ospf area")
          | "ospf" :: "link" :: nbr :: "cost" :: rest -> (
            acl_target := None;
            let u = node nbr lineno in
            match rest with
            | [ c ] | [ c; "area"; _ ] -> (
              let area =
                match rest with
                | [ _; "area"; a ] -> (
                  match int_of_string_opt a with
                  | Some a -> a
                  | None -> error lineno "bad area")
                | _ -> 0
              in
              match int_of_string_opt c with
              | Some cost ->
                r :=
                  {
                    !r with
                    Device.ospf_links =
                      !r.Device.ospf_links @ [ (u, { Device.cost; area }) ];
                  }
              | None -> error lineno "bad ospf cost")
            | _ -> error lineno "bad ospf link line")
          | "bgp" :: "neighbor" :: nbr :: opts ->
            acl_target := None;
            let u = node nbr lineno in
            let ibgp = ref false
            and rel = ref Device.Rel_unknown
            and import_rm = ref None
            and export_rm = ref None in
            let rec eat = function
              | [] -> ()
              | "ibgp" :: rest ->
                ibgp := true;
                eat rest
              | "provider" :: rest ->
                rel := Device.Provider;
                eat rest
              | "customer" :: rest ->
                rel := Device.Customer;
                eat rest
              | "peer" :: rest ->
                rel := Device.Peer;
                eat rest
              | "import" :: rm :: rest ->
                import_rm := Some (finished_rm rm lineno);
                eat rest
              | "export" :: rm :: rest ->
                export_rm := Some (finished_rm rm lineno);
                eat rest
              | t :: _ -> error lineno "bad bgp option %s" t
            in
            eat opts;
            r :=
              {
                !r with
                Device.bgp_neighbors =
                  !r.Device.bgp_neighbors
                  @ [
                      ( u,
                        {
                          Device.import_rm = !import_rm;
                          export_rm = !export_rm;
                          ibgp = !ibgp;
                          rel = !rel;
                        } );
                    ];
              }
          | [ "static"; p; "via"; nbr ] -> (
            acl_target := None;
            match Prefix.of_string_opt p with
            | Some p ->
              r :=
                {
                  !r with
                  Device.static_routes =
                    !r.Device.static_routes @ [ (p, node nbr lineno) ];
                }
            | None -> error lineno "bad static prefix %s" p)
          | [ "acl"; "out"; nbr ] ->
            let u = node nbr lineno in
            acl_target := Some u;
            r := { !r with Device.acl_out = !r.Device.acl_out @ [ (u, []) ] }
          | [ ("permit" | "deny") as verdict; p ] -> (
            match (!acl_target, Prefix.of_string_opt p) with
            | Some u, Some p ->
              let rule = { Acl.permit = verdict = "permit"; prefix = p } in
              r :=
                {
                  !r with
                  Device.acl_out =
                    List.map
                      (fun (w, acl) ->
                        if w = u then (w, acl @ [ rule ]) else (w, acl))
                      !r.Device.acl_out;
                }
            | None, _ -> error lineno "acl rule outside an acl block"
            | _, None -> error lineno "bad acl prefix %s" p)
          | [ "originate"; p ] -> (
            acl_target := None;
            match Prefix.of_string_opt p with
            | Some p ->
              r := { !r with Device.originated = !r.Device.originated @ [ p ] }
            | None -> error lineno "bad originate prefix %s" p)
          | [ "redistribute"; what ] -> (
            acl_target := None;
            let rd =
              match what with
              | "ospf-into-bgp" -> Multi.Ospf_into_bgp
              | "static-into-bgp" -> Multi.Static_into_bgp
              | "bgp-into-ospf" -> Multi.Bgp_into_ospf
              | _ -> error lineno "bad redistribute target %s" what
            in
            r := { !r with Device.redistribute = !r.Device.redistribute @ [ rd ] })
          | _ ->
            error lineno "bad router line: %s" (String.concat " " toks)
          with Parse_error (l, m) -> add_diag l m)
        body;
      router_arr.(v) <- !r)
    (List.rev !routers);
  let net = { Device.graph = g; routers = router_arr } in
  let locs =
    {
      router_lines =
        List.rev_map (fun (name, header, _) -> (name, header)) !routers;
      route_maps =
        List.rev_map
          (fun name ->
            let header, cls = sorted_clauses name 0 in
            ( name,
              {
                rm_line = header;
                clause_lines =
                  Array.of_list (List.map (fun pc -> pc.pc_line) cls);
              } ))
          !rm_order;
      rm_names =
        (* First definition wins when two names share a structure, so
           lookups by value are deterministic. *)
        List.rev_map (fun name -> (finished_rm name 0, name)) !rm_order;
    }
  in
  match List.rev !diags with
  | _ :: _ as ds -> Error ds
  | [] -> (
    match Device.validate net with
    | Ok () -> Ok (net, locs)
    | Error e -> Error [ (0, Printf.sprintf "invalid network: %s" e) ])
  end

let parse_full text =
  (* A belt for whatever slips past the per-line recovery (the grammar
     has no known way to get here, but parsers must not crash). *)
  try parse_full text with
  | Parse_error (l, m) -> Error [ (l, m) ]
  | Invalid_argument m -> Error [ (0, m) ]

let string_of_diags ds =
  String.concat "\n"
    (List.map
       (fun (l, m) -> if l = 0 then m else Printf.sprintf "line %d: %s" l m)
       ds)

let parse_with_locs text =
  Result.map_error string_of_diags (parse_full text)

let parse text = Result.map fst (parse_with_locs text)

let read_one path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | s -> Ok s
        | exception (End_of_file | Sys_error _) ->
          Error (Printf.sprintf "%s: unreadable (truncated or not a regular \
                                 file)" path))

(* A directory is one network: its *.cfg and *.conf files in name order,
   joined with a newline. No section depends on where it sits, so any
   split of a network across files parses the same; line numbers count
   through the joined text. *)
let read_file path =
  match Sys.is_directory path with
  | exception Sys_error _ | false -> read_one path
  | true -> (
    match Sys.readdir path with
    | exception Sys_error e -> Error e
    | entries -> (
      let configs =
        List.filter
          (fun f ->
            Filename.check_suffix f ".cfg" || Filename.check_suffix f ".conf")
          (List.sort String.compare (Array.to_list entries))
      in
      let rec read acc = function
        | [] -> Ok (String.concat "\n" (List.rev acc))
        | f :: rest ->
          Result.bind (read_one (Filename.concat path f)) (fun s ->
              read (s :: acc) rest)
      in
      match configs with
      | [] -> Error (Printf.sprintf "%s: no *.cfg or *.conf file" path)
      | _ -> read [] configs))

let load path = Result.bind (read_file path) parse

let load_full path =
  match read_file path with
  | Ok text -> parse_full text
  | Error e -> Error [ (0, e) ]

let save ~path net =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (print net))
