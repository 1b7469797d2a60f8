let router_loc ?locs g v =
  let router = Graph.name g v in
  Diag.at_router
    ?line:(Option.bind locs (fun l -> Config_text.router_line l router))
    router

let session_loc ?locs g v w =
  let router = Graph.name g v in
  Diag.at_router ~neighbor:(Graph.name g w)
    ?line:(Option.bind locs (fun l -> Config_text.router_line l router))
    router

(* ------------------------------------------------------------------ *)
(* Check 1: cross-protocol route leaks.

   A prov sitting in some router's BGP plane with [t_ospf] has been in
   OSPF, left it through an [Ospf_into_bgp] exporter ([via_redist]) and
   traversed at least one session; if this router re-injects BGP into
   OSPF and is not the exporter itself, the route re-enters OSPF away
   from where it left — the OSPF→BGP→OSPF shape the per-device
   redistribution-cycle check cannot see across multiple hops. *)

let leak_check ?locs (t : Flow.t) =
  let net = Flow.network t in
  let g = net.Device.graph in
  let rs = net.Device.routers in
  let dest = (Flow.ec t).Ecs.ec_prefix in
  let out = ref [] in
  Array.iteri
    (fun b (r : Device.router) ->
      if
        List.exists
          (Multi.redistribution_equal Multi.Bgp_into_ospf)
          r.Device.redistribute
        && r.Device.ospf_links <> []
      then
        match Flow.fact t b Flow.Bgp with
        | None | Some Flow.Unknown -> ()
        | Some (Flow.Facts { provs; _ }) -> (
          let leaky =
            List.filter
              (fun (p : Flow.prov) ->
                Flow.has p.taint Flow.t_ospf
                && Flow.has p.taint Flow.t_redist
                && (Flow.has p.taint Flow.t_ebgp
                   || Flow.has p.taint Flow.t_ibgp)
                && p.via_redist >= 0
                && p.via_redist <> b)
              provs
          in
          match leaky with
          | [] -> ()
          | p :: _ ->
            let name = Graph.name g in
            out :=
              Diag.make ~check:"cross-protocol-leak" ~severity:Diag.Error
                ~loc:(router_loc ?locs g b)
                (Printf.sprintf
                   "a route for %s originated at %s can leave OSPF into BGP \
                    at %s, traverse BGP sessions, and be re-injected into \
                    OSPF here at %s — a cross-protocol leak that can form a \
                    forwarding loop no single device sees"
                   (Prefix.to_string dest) (name p.org) (name p.via_redist)
                   (name b))
              :: !out))
    rs;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Check 2: unintended transit. Only sessions annotated with a business
   relationship participate; unannotated networks are silent. *)

let transit_check ?locs (t : Flow.t) =
  let net = Flow.network t in
  let g = net.Device.graph in
  let dest = (Flow.ec t).Ecs.ec_prefix in
  let edges = Flow.bgp_edges t in
  let edge_exists v w =
    List.exists (fun (a, b) -> Int.equal a v && Int.equal b w) edges
  in
  let out = ref [] in
  Array.iteri
    (fun r (rt : Device.router) ->
      List.iter
        (fun (w, (nb : Device.bgp_neighbor)) ->
          let exports_to_noncustomer =
            match nb.Device.rel with
            | Device.Provider | Device.Peer -> true
            | Device.Customer | Device.Rel_unknown -> false
          in
          if exports_to_noncustomer && edge_exists r w then
            match Flow.fact t r Flow.Bgp with
            | None | Some Flow.Unknown -> ()
            | Some (Flow.Facts { provs; _ }) -> (
              let tainted =
                List.filter
                  (fun (p : Flow.prov) ->
                    Flow.has p.taint Flow.t_from_provider
                    || Flow.has p.taint Flow.t_from_peer)
                  provs
              in
              match tainted with
              | [] -> ()
              | p :: _ ->
                let name = Graph.name g in
                out :=
                  Diag.make ~check:"unintended-transit"
                    ~severity:Diag.Warning
                    ~loc:(session_loc ?locs g r w)
                    (Printf.sprintf
                       "a route for %s learned from a %s (originated at %s) \
                        can be re-exported to %s, a %s — %s provides \
                        transit between non-customers (valley-free \
                        violation)"
                       (Prefix.to_string dest)
                       (if Flow.has p.taint Flow.t_from_provider then
                          "provider"
                        else "peer")
                       (name p.org) (name w)
                       (Device.relation_name nb.Device.rel)
                       (name r))
                  :: !out))
        rt.Device.bgp_neighbors)
    net.Device.routers;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Check 3: community provenance. A community matched by a reachable
   clause of a session's route-map is flagged when, across every class
   where a route can reach the session, the arriving community set never
   contains it. Any [Unknown] fact, and any class where it can arrive,
   clears the candidate — over-approximation keeps this sound (the
   simulator can only deliver communities the facts contain). *)

type comm_site = {
  cs_router : int;
  cs_peer : int;
  cs_dir : string;  (** "import" | "export" *)
  cs_comm : int;
}

let comm_check ?locs (ts : Flow.t list) =
  match ts with
  | [] -> []
  | t0 :: _ ->
    let net = Flow.network t0 in
    let g = net.Device.graph in
    (* candidate -> true when some class proved the match reachable (or
       unknown); candidates accumulate evidence only while absent *)
    let killed : (comm_site, unit) Hashtbl.t = Hashtbl.create 16 in
    let evidence : (comm_site, unit) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun t ->
        let dest = (Flow.ec t).Ecs.ec_prefix in
        let cond = Flow.cond t in
        Array.iteri
          (fun r (rt : Device.router) ->
            List.iter
              (fun (w, (nb : Device.bgp_neighbor)) ->
                (* Import side: r's import route-map on the session from
                   w; matches see the route as w's export left it. *)
                (match nb.Device.import_rm with
                | None -> ()
                | Some rm ->
                  let matched = Flow.reachable_matched cond rm ~dest in
                  if matched <> [] then (
                    match Flow.fact t w Flow.Bgp with
                    | None -> () (* nothing reaches w: no evidence *)
                    | Some Flow.Unknown ->
                      List.iter
                        (fun c ->
                          Hashtbl.replace killed
                            { cs_router = r; cs_peer = w; cs_dir = "import";
                              cs_comm = c }
                            ())
                        matched
                    | Some (Flow.Facts { provs; comms }) ->
                      if provs <> [] then
                        let arriving =
                          List.sort_uniq Int.compare
                            (comms @ Flow.export_added t ~src:w ~dst:r)
                        in
                        List.iter
                          (fun c ->
                            let site =
                              { cs_router = r; cs_peer = w;
                                cs_dir = "import"; cs_comm = c }
                            in
                            if List.exists (Int.equal c) arriving then
                              Hashtbl.replace killed site ()
                            else Hashtbl.replace evidence site ())
                          matched));
                (* Export side: r's export route-map towards w; matches
                   see r's own routes. *)
                match nb.Device.export_rm with
                | None -> ()
                | Some rm ->
                  let matched = Flow.reachable_matched cond rm ~dest in
                  if matched <> [] then (
                    match Flow.fact t r Flow.Bgp with
                    | None -> ()
                    | Some Flow.Unknown ->
                      List.iter
                        (fun c ->
                          Hashtbl.replace killed
                            { cs_router = r; cs_peer = w; cs_dir = "export";
                              cs_comm = c }
                            ())
                        matched
                    | Some (Flow.Facts { provs; comms }) ->
                      if provs <> [] then
                        List.iter
                          (fun c ->
                            let site =
                              { cs_router = r; cs_peer = w;
                                cs_dir = "export"; cs_comm = c }
                            in
                            if List.exists (Int.equal c) comms then
                              Hashtbl.replace killed site ()
                            else Hashtbl.replace evidence site ())
                          matched))
              rt.Device.bgp_neighbors)
          net.Device.routers)
      ts;
    Hashtbl.fold
      (fun site () acc ->
        if Hashtbl.mem killed site then acc else site :: acc)
      evidence []
    |> List.sort (fun a b ->
           match Int.compare a.cs_router b.cs_router with
           | 0 -> (
             match Int.compare a.cs_peer b.cs_peer with
             | 0 -> (
               match String.compare a.cs_dir b.cs_dir with
               | 0 -> Int.compare a.cs_comm b.cs_comm
               | c -> c)
             | c -> c)
           | c -> c)
    |> List.map (fun site ->
           let name = Graph.name g in
           Diag.make ~check:"community-provenance" ~severity:Diag.Warning
             ~loc:(session_loc ?locs g site.cs_router site.cs_peer)
             (Printf.sprintf
                "the %s route-map of %s %s %s matches community %s, but no \
                 route that can reach this session carries it — the match \
                 can never fire"
                site.cs_dir
                (name site.cs_router)
                (if site.cs_dir = "import" then "<-" else "->")
                (name site.cs_peer)
                (Config_text.community_to_string site.cs_comm)))

(* ------------------------------------------------------------------ *)
(* Check 4: compression-blocker localization. For each blocker pair,
   follow the BGP propagation tree from the class origin to both routers
   and compare the edge-policy BDDs hop by hop: if the first semantic
   divergence sits strictly before the final hop, the split the blocker
   reports is only a symptom — the causing divergence is upstream. *)

let blocker_origin_check ?locs (ts : Flow.t list) (net : Device.network) =
  match Lint_compress.blockers net with
  | [] -> []
  | bls -> (
    let g = net.Device.graph in
    let u = Policy_bdd.universe_of_network net in
    match
      List.find_opt
        (fun t ->
          match bls with
          | b :: _ -> Prefix.equal (Flow.ec t).Ecs.ec_prefix b.Lint_compress.bl_dest
          | [] -> false)
        ts
    with
    | None -> []
    | Some t ->
      let n = Graph.n_nodes g in
      (* BFS parent tree over deliverable sessions from the origin. *)
      let parent = Array.make n (-1) in
      let edges = Flow.bgp_edges t in
      let origin =
        match bls with b :: _ -> b.Lint_compress.bl_origin | [] -> 0
      in
      let visited = Array.make n false in
      visited.(origin) <- true;
      let q = Queue.create () in
      Queue.add origin q;
      while not (Queue.is_empty q) do
        let v = Queue.take q in
        List.iter
          (fun (s, r) ->
            if Int.equal s v && not visited.(r) then begin
              visited.(r) <- true;
              parent.(r) <- v;
              Queue.add r q
            end)
          edges
      done;
      let path_to v =
        if not visited.(v) then None
        else
          let rec go acc v = if v = origin then v :: acc else go (v :: acc) parent.(v) in
          Some (go [] v)
      in
      List.filter_map
        (fun (b : Lint_compress.blocker) ->
          let dest = b.Lint_compress.bl_dest in
          match (path_to b.Lint_compress.bl_r1, path_to b.Lint_compress.bl_r2) with
          | Some p1, Some p2 when List.length p1 = List.length p2 && List.length p1 > 1 ->
            let hops p = List.combine (List.tl p) (List.filteri (fun i _ -> i < List.length p - 1) p) in
            let h1 = hops p1 and h2 = hops p2 in
            let rec first_div i = function
              | [], [] -> None
              | (r1, s1) :: rest1, (r2, s2) :: rest2 ->
                let b1 = Policy_bdd.edge_policy u net ~dest r1 s1
                and b2 = Policy_bdd.edge_policy u net ~dest r2 s2 in
                if Policy_bdd.same b1 b2 then first_div (i + 1) (rest1, rest2)
                else Some (i, (r1, s1), (r2, s2))
              | _ -> None
            in
            Option.bind (first_div 0 (h1, h2)) (fun (i, (r1, s1), (r2, s2)) ->
                if i >= List.length h1 - 1 then None
                  (* divergence at the final hop: the blocker report
                     already points there *)
                else
                  let name = Graph.name g in
                  Some
                    (Diag.make ~check:"compression-blocker-origin"
                       ~severity:Diag.Info
                       ~loc:(session_loc ?locs g r1 s1)
                       (Printf.sprintf
                          "the role split between %s and %s for %s \
                           originates upstream: along the propagation \
                           paths from %s, the policies first diverge at \
                           %s<-%s vs %s<-%s (%d hop%s before the reported \
                           blocker)"
                          (name b.Lint_compress.bl_r1)
                          (name b.Lint_compress.bl_r2)
                          (Prefix.to_string dest)
                          (name origin) (name r1) (name s1) (name r2)
                          (name s2)
                          (List.length h1 - 1 - i)
                          (if List.length h1 - 1 - i = 1 then "" else "s"))))
          | _ -> None)
        bls)

(* ------------------------------------------------------------------ *)

let degraded_diag (ts : Flow.t list) =
  match List.find_map Flow.degraded ts with
  | None -> []
  | Some info ->
    [
      Diag.make ~check:"flow-degraded" ~severity:Diag.Warning
        (Printf.sprintf
           "provenance analysis exhausted its budget in phase %s after %d \
            ticks (%.1fs); flow facts degraded to unknown and flow checks \
            reading them were suppressed"
           info.Budget.phase info.Budget.ticks info.Budget.elapsed_s);
    ]

(* The per-class checks fire once per (class, site); on a network with
   hundreds of destination classes a single misconfigured router would
   drown the report. Collapse to one diagnostic per (check, site), the
   first class's message standing for the rest with a count. *)
let dedupe_sites (ds : Diag.t list) =
  let seen : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
  let key (d : Diag.t) =
    String.concat "|"
      [ d.Diag.check;
        Option.value ~default:"" d.Diag.loc.Diag.router;
        Option.value ~default:"" d.Diag.loc.Diag.neighbor ]
  in
  let kept =
    List.filter
      (fun d ->
        match Hashtbl.find_opt seen (key d) with
        | Some n ->
          incr n;
          false
        | None ->
          Hashtbl.replace seen (key d) (ref 0);
          true)
      ds
  in
  List.map
    (fun (d : Diag.t) ->
      match Hashtbl.find_opt seen (key d) with
      | Some { contents = n } when n > 0 ->
        {
          d with
          Diag.message =
            Printf.sprintf "%s (likewise for %d other destination class%s)"
              d.Diag.message n
              (if n = 1 then "" else "es");
        }
      | _ -> d)
    kept

let run ?locs ?budget (net : Device.network) =
  let cond = Cond_bdd.of_network net in
  let ts = List.map (Flow.analyze ?budget ~cond net) (Ecs.compute net) in
  dedupe_sites
    (List.concat_map
       (fun t -> leak_check ?locs t @ transit_check ?locs t)
       ts)
  @ comm_check ?locs ts
  @ blocker_origin_check ?locs ts net
  @ degraded_diag ts

type fact_row = {
  fr_router : string;
  fr_role : int option;
  fr_bgp : string option;
  fr_ospf : string option;
}

type report = {
  findings : Diag.t list;
  degraded : bool;
  facts : (Ecs.ec * fact_row list) option;
}

let fact_rows ~budget (net : Device.network) ec =
  let t = Flow.analyze ~budget net ec in
  let names = Graph.name net.Device.graph in
  (* each router's compressed role: its abstract node *)
  let roles =
    Result.to_option (Bonsai_api.compress_ec net ec)
    |> Option.map (fun (c : Bonsai_api.ec_result) ->
           c.Bonsai_api.abstraction.Abstraction.group_of)
  in
  List.init (Graph.n_nodes net.Device.graph) (fun r ->
      let plane p =
        Option.map
          (Format.asprintf "%a" (Flow.pp_fact ~names))
          (Flow.fact t r p)
      in
      {
        fr_router = names r;
        fr_role = Option.map (fun g -> g.(r)) roles;
        fr_bgp = plane Flow.Bgp;
        fr_ospf = plane Flow.Ospf;
      })

let report ?locs ~budget ~facts net =
  let findings = List.sort Diag.compare (run ?locs ~budget net) in
  {
    findings;
    degraded =
      List.exists (fun d -> String.equal d.Diag.check "flow-degraded") findings;
    facts = Option.map (fun ec -> (ec, fact_rows ~budget net ec)) facts;
  }

let report_json_fields r =
  let opt f = function Some x -> f x | None -> Json.Null in
  let str s = Json.String s in
  let row fr =
    Json.Obj
      [
        ("router", str fr.fr_router);
        ("role", opt (fun g -> Json.Int g) fr.fr_role);
        ("bgp", opt str fr.fr_bgp);
        ("ospf", opt str fr.fr_ospf);
      ]
  in
  [
    ("findings", Diag.list_to_json r.findings);
    ("degraded", Json.Bool r.degraded);
  ]
  @
  match r.facts with
  | None -> []
  | Some (_, rows) -> [ ("facts", Json.List (List.map row rows)) ]
