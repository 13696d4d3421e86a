type found = {
  finding : Oracle.finding;
  source : string;
}

type signature =
  | Crash_site of string
  | Verdict_group of {
      kind : Solver.Bug_db.kind;
      solver_name : string;
      theory : string;
    }

type cluster = {
  key : string;
  signature : signature;
  kind : Solver.Bug_db.kind;
  solver : O4a_coverage.Coverage.solver_tag;
  theory : string;
  bug_id : string option;
  representative : found;
  count : int;
}

let signature (finding : Oracle.finding) =
  match finding.Oracle.kind with
  | Solver.Bug_db.Crash -> Crash_site finding.Oracle.signature
  | (Solver.Bug_db.Soundness | Solver.Bug_db.Invalid_model) as kind ->
    (* group by kind, solver and theory, as the paper does *)
    Verdict_group
      {
        kind;
        solver_name = finding.Oracle.solver_name;
        theory = finding.Oracle.theory;
      }

let signature_to_string = function
  | Crash_site site -> "crash:" ^ site
  | Verdict_group { kind; solver_name; theory } ->
    Printf.sprintf "%s:%s:%s" (Solver.Bug_db.kind_to_string kind) solver_name
      theory

let cluster_key f = signature_to_string (signature f.finding)

let majority_bug_id members =
  members
  |> List.filter_map (fun f -> f.finding.Oracle.bug_id)
  |> O4a_util.Listx.count_by Fun.id
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> function
  | (id, _) :: _ -> Some id
  | [] -> None

let cluster founds =
  founds
  |> O4a_util.Listx.group_by cluster_key
  |> List.map (fun (key, members) ->
         let first = List.hd members in
         let representative =
           List.fold_left
             (fun best f ->
               if String.length f.source < String.length best.source then f else best)
             first members
         in
         {
           key;
           signature = signature first.finding;
           kind = first.finding.Oracle.kind;
           solver = first.finding.Oracle.solver;
           theory = first.finding.Oracle.theory;
           bug_id = majority_bug_id members;
           representative;
           count = List.length members;
         })
