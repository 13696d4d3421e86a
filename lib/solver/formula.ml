open Smtlib

type t = {
  script : Script.t;
  mutable checked : (unit, string) result option;
  mutable index : Trigger.index option;
}

let of_script script = { script; checked = None; index = None }

let script t = t.script

let check t =
  match t.checked with
  | Some r -> r
  | None ->
    let r = Theories.Typecheck.check_script t.script in
    t.checked <- Some r;
    r

let index t =
  match t.index with
  | Some ix -> ix
  | None ->
    let ix = Trigger.index t.script in
    t.index <- Some ix;
    ix
