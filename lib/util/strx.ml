(* top-level, so that no call allocates a closure *)
let rec matches_from prefix s i =
  i = String.length prefix
  || (String.unsafe_get s i = String.unsafe_get prefix i && matches_from prefix s (i + 1))

let starts_with ~prefix s = String.length s >= String.length prefix && matches_from prefix s 0

let contains_sub ~sub s =
  let ls = String.length s and lsub = String.length sub in
  if lsub = 0 then true
  else (
    let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
    go 0)

let split_on c s = String.split_on_char c s

let split_lines s = split_on '\n' s

let join sep xs = String.concat sep xs

let indent n s =
  let pad = String.make n ' ' in
  split_lines s |> List.map (fun l -> if l = "" then l else pad ^ l) |> join "\n"

let truncate_mid n s =
  if String.length s <= n || n < 5 then s
  else (
    let half = (n - 3) / 2 in
    String.sub s 0 half ^ "..." ^ String.sub s (String.length s - half) half)

let escape_smt_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
    s;
  Buffer.contents buf
