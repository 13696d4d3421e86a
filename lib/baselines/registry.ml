let baselines ~client =
  [
    Storm.fuzzer;
    Yinyang.fuzzer;
    Opfuzz.fuzzer;
    Typefuzz.fuzzer;
    Histfuzz.fuzzer;
    Fuzz4all_sim.make ~client;
    Et_sim.make ();
  ]

let wrap_once4all ~name ~use_skeletons (campaign : Once4all.Campaign.t) =
  let generate ~rng ~seeds =
    let config =
      { Once4all.Fuzz.default_config with Once4all.Fuzz.use_skeletons }
    in
    let filled =
      if not use_skeletons then
        Once4all.Synthesize.direct ~rng
          ~generators:campaign.Once4all.Campaign.generators
          ~terms:(1 + O4a_util.Rng.int rng config.Once4all.Fuzz.direct_terms_max)
      else (
        let seed = O4a_util.Rng.choose rng seeds in
        let skeleton, holes =
          Once4all.Skeleton.skeletonize ~rng
            ~keep_prob:config.Once4all.Fuzz.keep_prob seed
        in
        if holes = 0 then
          Once4all.Synthesize.direct ~rng
            ~generators:campaign.Once4all.Campaign.generators ~terms:2
        else
          Once4all.Synthesize.fill ~rng
            ~generators:campaign.Once4all.Campaign.generators ~skeleton ~holes ())
    in
    filled.Once4all.Synthesize.source
  in
  { Fuzzer.name; tests_per_tick = 100; generate }

let once4all campaign = wrap_once4all ~name:"Once4All" ~use_skeletons:true campaign

let once4all_wos campaign =
  wrap_once4all ~name:"Once4All_w/oS" ~use_skeletons:false campaign

let find ~client name =
  let target = String.lowercase_ascii name in
  List.find_opt
    (fun f -> String.lowercase_ascii f.Fuzzer.name = target)
    (baselines ~client)
