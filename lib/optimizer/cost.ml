(* The paper's analytic page-I/O cost model (§4 summarizing Kim's analyses,
   §7 for NEST-JA2).

   Notation (Kim's, as restated in §7): Pk is the size in pages of relation
   Rk, Nk its tuple count, f(i) the fraction of Ri's tuples satisfying the
   simple predicates on Ri, and B the buffer size in pages.  Sorting a
   P-page relation with a (B-1)-way multiway merge sort costs
   2·P·log_{B-1}(P) page I/Os.

   The two source papers round differently: Kim's example costs (Figure 1)
   come out exactly with ceilinged logarithms, while the paper's §7.4 total
   of "about 475" requires real-valued logarithms (478.5 exactly).  The
   [rounding] parameter makes both reproducible. *)

type rounding = Exact | Ceil

let log_base b x = log x /. log b

(* log_{B-1}(p), guarded: a relation of 0/1 pages needs no merge passes. *)
let sort_log ~rounding ~b p =
  if p <= 1. then 0.
  else
    let v = log_base (float_of_int (b - 1)) p in
    match rounding with Exact -> v | Ceil -> Float.round (ceil v)

(* 2·P·log_{B-1}(P): the (B-1)-way multiway merge sort. *)
let sort_cost ?(rounding = Exact) ~b p = 2. *. p *. sort_log ~rounding ~b p

(* ------------------------------------------------------------------ *)
(* §4: costs of the strategies Kim compared                            *)
(* ------------------------------------------------------------------ *)

(* Nested iteration for a correlated (type-J/JA) nested query: scan Ri once;
   for each of the f(i)·Ni qualifying outer tuples, scan Rj. *)
let nested_iteration ~pi ~pj ~fi_ni = pi +. (fi_ni *. pj)

(* Type-N nested iteration in System R evaluates the inner block once and
   keeps the value list X; the dominant term is still re-walking X per outer
   tuple when X spills ([px] pages, [fi_ni] probes). *)
let nested_iteration_type_n ~pi ~pj ~fi_ni ~px = pi +. pj +. (fi_ni *. px)

(* Type-A: evaluate the inner block once, then scan the outer. *)
let type_a ~pi ~pj = pi +. pj

(* NEST-N-J followed by a merge join: sort whichever inputs need sorting,
   then a merging scan of both. *)
let nest_nj_merge ?(rounding = Exact) ?(sort_outer = true) ?(sort_inner = true)
    ~b ~pi ~pj () =
  (if sort_outer then sort_cost ~rounding ~b pi else 0.)
  +. (if sort_inner then sort_cost ~rounding ~b pj else 0.)
  +. pi +. pj

(* Kim's NEST-JA: build Rt by sorting/grouping Rj alone (cost Pj + sort Pj +
   Pt), then merge-join Ri with Rt (sort Ri, scan both). *)
let kim_nest_ja ?(rounding = Exact) ~b ~pi ~pj ~pt () =
  pj +. sort_cost ~rounding ~b pj +. pt
  +. sort_cost ~rounding ~b pi +. pi +. pt

(* ------------------------------------------------------------------ *)
(* §7: NEST-JA2 component costs                                        *)
(* ------------------------------------------------------------------ *)

type ja2_params = {
  pi : float; (* outer relation Ri *)
  pj : float; (* inner relation Rj *)
  pt2 : float; (* projection of Ri's join column, duplicates removed *)
  pt3 : float; (* restriction+projection of Rj *)
  pt4 : float; (* join result before GROUP BY *)
  pt : float; (* final aggregate temp Rt *)
  b : int;
  fi_ni : float; (* qualifying outer tuples, for the nested-iteration bound *)
  nt2 : float; (* tuples in Rt2, for the thrashing nested-loop case *)
}

(* §7.1: project/restrict Ri into Rt2, removing duplicates with a merge
   sort (which leaves Rt2 in join-column order). *)
let ja2_outer_projection ?(rounding = Exact) p =
  p.pi +. p.pt2 +. sort_cost ~rounding ~b:p.b p.pt2

(* §7.2, nested loops, Rt3 fits in B-1 pages. *)
let ja2_temp_nl_fits p = p.pj +. p.pt2 +. p.pt4

(* §7.2, nested loops, Rt3 does not fit: Rt3 re-read once per Rt2 tuple. *)
let ja2_temp_nl_thrash p = p.pj +. p.pt3 +. p.pt2 +. (p.nt2 *. p.pt3) +. p.pt4

(* §7.2, merge join: build+sort Rt3, merge with (already sorted) Rt2, store
   Rt4.  Outer join (COUNT) costs the same as a standard merge join. *)
let ja2_temp_merge ?(rounding = Exact) p =
  p.pj +. p.pt3 +. sort_cost ~rounding ~b:p.b p.pt3 +. p.pt2 +. p.pt3 +. p.pt4

(* §7.3: final join of Rt with Ri.  Merge join must sort Ri (Rt is born in
   join-column order); result assumed the size of Ri. *)
let ja2_final_merge ?(rounding = Exact) p =
  sort_cost ~rounding ~b:p.b p.pi +. p.pi +. p.pt

(* §7.3: nested-iteration final join: Rt re-scanned per qualifying Ri
   tuple. *)
let ja2_final_nl p = p.pi +. (p.fi_ni *. p.pt)

(* §7.4: the all-merge-join total, exactly as printed:
   Pi + Pt2 + 2·Pt2·log Pt2 + Pj + Pt3 + 2·Pt3·log Pt3 + Pt2 + Pt3 + 2·Pt4
   + Pt + 2·Pi·log Pi + Pi + Pt.
   (Creating Rt4 by merge join leaves it in GROUP BY order, so the GROUP BY
   costs only the extra read/write of Rt4 — the 2·Pt4 term.) *)
let ja2_total_merge ?(rounding = Exact) p =
  let sort = sort_cost ~rounding ~b:p.b in
  p.pi +. p.pt2 +. sort p.pt2
  +. p.pj +. p.pt3 +. sort p.pt3 +. p.pt2 +. p.pt3
  +. (2. *. p.pt4) +. p.pt
  +. sort p.pi +. p.pi +. p.pt

(* The four §7.4 strategy combinations (temp-creation method × final-join
   method), for the optimizer-style comparison table. *)
type ja2_strategy = {
  temp_method : string;
  final_method : string;
  cost : float;
}

let ja2_strategies ?(rounding = Exact) p =
  let projection = ja2_outer_projection ~rounding p in
  (* The temp-creation costs above already include storing Rt4; grouping a
     born-sorted Rt4 re-reads it and writes Rt. *)
  let group_by_extra_sorted = p.pt4 +. p.pt in
  (* After a nested-loop join, Rt4 is not grouped: sort it first. *)
  let group_by_extra_unsorted =
    sort_cost ~rounding ~b:p.b p.pt4 +. p.pt4 +. p.pt
  in
  let temp_nl =
    (if p.pt3 <= float_of_int (p.b - 1) then ja2_temp_nl_fits p
     else ja2_temp_nl_thrash p)
    +. group_by_extra_unsorted
  in
  let temp_merge = ja2_temp_merge ~rounding p +. group_by_extra_sorted in
  let final_merge = ja2_final_merge ~rounding p in
  let final_nl = ja2_final_nl p in
  [
    { temp_method = "nested-loop"; final_method = "nested-loop";
      cost = projection +. temp_nl +. final_nl };
    { temp_method = "nested-loop"; final_method = "merge";
      cost = projection +. temp_nl +. final_merge };
    { temp_method = "merge"; final_method = "nested-loop";
      cost = projection +. temp_merge +. final_nl };
    { temp_method = "merge"; final_method = "merge";
      cost = projection +. temp_merge +. final_merge };
  ]

(* ------------------------------------------------------------------ *)
(* Beyond the paper: blended I/O + CPU costing                         *)
(* ------------------------------------------------------------------ *)

(* The paper's model counts page I/O only, which cannot distinguish a hash
   operator from a nested loop whose inner fits in the pool (both touch each
   page once).  The hybrid planner therefore charges a small CPU term per
   tuple operation, expressed in page-I/O equivalents, on top of the page
   traffic.  The weight only has to separate O(n) hash paths from O(n·m)
   loops and O(n log n) sorts; its absolute value is uncritical. *)
let cpu_tuple_weight = 1e-3

let blended ~io ~tuples = io +. (cpu_tuple_weight *. tuples)

let log2 x = log (Float.max 2. x) /. log 2.

(* In-memory hash join: read both inputs once; build Nj entries, probe Ni. *)
let hash_join_blended ~pi ~pj ~ni ~nj =
  blended ~io:(pi +. pj) ~tuples:(ni +. nj)

(* Sort-merge join: external sorts for whichever inputs need one, then a
   merging scan; CPU is the comparison volume of the sorts plus the scan. *)
let merge_join_blended ?rounding ~b ~sort_left ~sort_right ~pi ~pj ~ni ~nj ()
    =
  let io =
    (if sort_left then sort_cost ?rounding ~b pi else 0.)
    +. (if sort_right then sort_cost ?rounding ~b pj else 0.)
    +. pi +. pj
  in
  let tuples =
    (if sort_left then ni *. log2 ni else 0.)
    +. (if sort_right then nj *. log2 nj else 0.)
    +. ni +. nj
  in
  blended ~io ~tuples

(* Tuple nested loops: page traffic as in the paper; CPU is the Ni·Nj
   comparison volume that page counting never sees. *)
let nl_join_blended ~io ~ni ~nj = blended ~io ~tuples:(ni *. nj)

(* Hash aggregation / dedup: one scan, one table op per input tuple. *)
let hash_agg_blended ~pi ~ni = blended ~io:pi ~tuples:ni

(* Sort-based aggregation / dedup over an unsorted input. *)
let sort_agg_blended ?rounding ~b ~pi ~ni () =
  blended ~io:(sort_cost ?rounding ~b pi +. pi) ~tuples:(ni *. log2 ni)

(* Band aggregation (GROUP BY over a join with one <, <=, > or >=
   condition): the left side is held B-2 pages at a time and the inner is
   read once per chunk, Pt1 + ⌈Pt1/(B-2)⌉·Pj′, against nested loops'
   Pt1 + Nt1·Pj′ followed by a sort of the join output. *)
let band_passes ~b ~pt1 =
  Float.max 1. (ceil (pt1 /. float_of_int (max 1 (b - 2))))

let band_agg ~b ~pt1 ~pj = pt1 +. (band_passes ~b ~pt1 *. pj)

(* Only a run of several chunks needs its left side in group order; one
   not known to arrive so is written, sorted and re-read first. *)
let band_left_sort ~b ~pt1 ~in_order =
  if in_order || band_passes ~b ~pt1 <= 1. then 0.
  else (2. *. pt1) +. sort_cost ~rounding:Ceil ~b pt1

(* CPU: sorting the left keys once, and per pass a binary search over one
   chunk's keys for every inner tuple. *)
let band_agg_blended ~b ~pt1 ~pj ~nt1 ~nj =
  let passes = band_passes ~b ~pt1 in
  blended ~io:(band_agg ~b ~pt1 ~pj)
    ~tuples:((nt1 *. log2 nt1) +. (passes *. nj *. log2 (nt1 /. passes)))
