let checks =
  Lint_route_map.checks @ Lint_acl.checks @ Lint_comms.checks
  @ Lint_session.checks @ Lint_routing.checks @ Lint_compress.checks

let run ?locs (net : Device.network) =
  let u = Cond_bdd.of_network net in
  let ds =
    Lint_route_map.run ?locs u net
    @ Lint_acl.run ?locs u net
    @ Lint_comms.run ?locs net
    @ Lint_session.run ?locs net
    @ Lint_routing.run ?locs u net
    @ Lint_compress.run ?locs net
  in
  List.sort Diag.compare ds

let filter ~min_severity ds =
  List.filter
    (fun d ->
      Diag.severity_rank d.Diag.severity >= Diag.severity_rank min_severity)
    ds

let has_errors ds =
  List.exists (fun d -> d.Diag.severity = Diag.Error) ds

let pp_text ppf ds =
  List.iter (fun d -> Format.fprintf ppf "%a@." Diag.pp d) ds;
  let count sev =
    List.length (List.filter (fun d -> d.Diag.severity = sev) ds)
  in
  Format.fprintf ppf "%d error%s, %d warning%s, %d note%s@."
    (count Diag.Error)
    (if count Diag.Error = 1 then "" else "s")
    (count Diag.Warning)
    (if count Diag.Warning = 1 then "" else "s")
    (count Diag.Info)
    (if count Diag.Info = 1 then "" else "s")
