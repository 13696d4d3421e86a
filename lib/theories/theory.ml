open Smtlib

type id =
  | Core
  | Ints
  | Reals
  | Reals_ints
  | Bitvectors
  | Strings
  | Arrays
  | Datatypes
  | Seq
  | Sets
  | Bags
  | Finite_fields

type info = {
  id : id;
  name : string;
  key : string;
  standard : bool;
  extension_of : string option;
  ops : string list;
  base_sorts : Sort.t list;
  difficulty : float;
  year_introduced : int;
}

let all =
  [
    {
      id = Core;
      name = "Core";
      key = "core";
      standard = true;
      extension_of = None;
      ops = [ "not"; "and"; "or"; "xor"; "=>"; "="; "distinct"; "ite" ];
      base_sorts = [ Sort.Bool ];
      difficulty = 0.05;
      year_introduced = 2010;
    };
    {
      id = Ints;
      name = "Ints";
      key = "ints";
      standard = true;
      extension_of = None;
      ops = [ "+"; "-"; "*"; "div"; "mod"; "abs"; "<"; "<="; ">"; ">=" ];
      base_sorts = [ Sort.Int ];
      difficulty = 0.1;
      year_introduced = 2010;
    };
    {
      id = Reals;
      name = "Reals";
      key = "reals";
      standard = true;
      extension_of = None;
      ops = [ "+"; "-"; "*"; "/"; "<"; "<="; ">"; ">=" ];
      base_sorts = [ Sort.Real ];
      difficulty = 0.08;
      year_introduced = 2010;
    };
    {
      id = Reals_ints;
      name = "Reals_Ints";
      key = "reals_ints";
      standard = true;
      extension_of = None;
      ops = [ "to_real"; "to_int"; "is_int"; "+"; "-"; "*"; "/"; "div"; "mod"; "<"; "<=" ];
      base_sorts = [ Sort.Int; Sort.Real ];
      difficulty = 0.2;
      year_introduced = 2010;
    };
    {
      id = Bitvectors;
      name = "FixedSizeBitVectors";
      key = "bitvectors";
      standard = true;
      extension_of = None;
      ops =
        [ "concat"; "bvnot"; "bvneg"; "bvand"; "bvor"; "bvxor"; "bvadd"; "bvsub"; "bvmul";
          "bvudiv"; "bvurem"; "bvshl"; "bvlshr"; "bvashr"; "bvult"; "bvule"; "bvugt";
          "bvuge"; "bvslt"; "bvsle"; "bvsgt"; "bvsge"; "bvcomp"; "bv2nat" ];
      base_sorts = [ Sort.Bitvec 4; Sort.Bitvec 8 ];
      difficulty = 0.55;
      year_introduced = 2010;
    };
    {
      id = Strings;
      name = "Strings";
      key = "strings";
      standard = true;
      extension_of = None;
      ops =
        [ "str.++"; "str.len"; "str.at"; "str.substr"; "str.indexof"; "str.contains";
          "str.prefixof"; "str.suffixof"; "str.replace"; "str.replace_all"; "str.<";
          "str.<="; "str.to_int"; "str.from_int"; "str.to_code"; "str.from_code";
          "str.is_digit"; "str.in_re"; "str.to_re"; "re.++"; "re.union"; "re.inter";
          "re.*"; "re.+"; "re.opt"; "re.comp"; "re.range"; "re.diff" ];
      base_sorts = [ Sort.String_sort ];
      difficulty = 0.35;
      year_introduced = 2020;
    };
    {
      id = Arrays;
      name = "ArraysEx";
      key = "arrays";
      standard = true;
      extension_of = None;
      ops = [ "select"; "store" ];
      base_sorts = [ Sort.Array (Sort.Int, Sort.Int); Sort.Array (Sort.Int, Sort.Bool) ];
      difficulty = 0.3;
      year_introduced = 2010;
    };
    {
      id = Datatypes;
      name = "Datatypes";
      key = "datatypes";
      standard = true;
      extension_of = None;
      ops = [];
      base_sorts = [];
      difficulty = 0.5;
      year_introduced = 2017;
    };
    {
      id = Seq;
      name = "Sequences";
      key = "seq";
      standard = false;
      extension_of = Some "cove";
      ops =
        [ "seq.unit"; "seq.++"; "seq.len"; "seq.nth"; "seq.extract"; "seq.update";
          "seq.at"; "seq.contains"; "seq.indexof"; "seq.replace"; "seq.rev";
          "seq.prefixof"; "seq.suffixof" ];
      base_sorts = [ Sort.Seq Sort.Int ];
      difficulty = 0.6;
      year_introduced = 2021;
    };
    {
      id = Sets;
      name = "Sets and Relations";
      key = "sets";
      standard = false;
      extension_of = Some "cove";
      ops =
        [ "set.singleton"; "set.insert"; "set.union"; "set.inter"; "set.minus";
          "set.member"; "set.subset"; "set.card"; "set.complement"; "set.choose";
          "set.is_empty"; "rel.join"; "rel.transpose"; "rel.product"; "tuple" ];
      base_sorts = [ Sort.Set Sort.Int; Sort.Set (Sort.Tuple [ Sort.Int; Sort.Int ]) ];
      difficulty = 0.65;
      year_introduced = 2019;
    };
    {
      id = Bags;
      name = "Bags";
      key = "bags";
      standard = false;
      extension_of = Some "cove";
      ops =
        [ "bag"; "bag.union_max"; "bag.union_disjoint"; "bag.inter_min";
          "bag.difference_subtract"; "bag.difference_remove"; "bag.count"; "bag.member";
          "bag.card"; "bag.setof"; "bag.subbag"; "bag.choose" ];
      base_sorts = [ Sort.Bag Sort.Int ];
      difficulty = 0.6;
      year_introduced = 2021;
    };
    {
      id = Finite_fields;
      name = "FiniteFields";
      key = "finite_fields";
      standard = false;
      extension_of = Some "cove";
      ops = [ "ff.add"; "ff.mul"; "ff.neg"; "ff.bitsum" ];
      base_sorts = [ Sort.Finite_field 3; Sort.Finite_field 5 ];
      difficulty = 0.8;
      year_introduced = 2022;
    };
  ]

let find id = List.find (fun t -> t.id = id) all

let find_by_key key = List.find_opt (fun t -> t.key = key) all

let standard_theories = List.filter (fun t -> t.standard) all

let extension_theories = List.filter (fun t -> not t.standard) all

let id_to_string id = (find id).key

let doc id = Docs.doc (id_to_string id)

let ground_truth_cfg id = Cfgs.cfg (id_to_string id)
