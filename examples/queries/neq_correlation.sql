-- fixture: neq-bug
-- Non-equality correlations: the paper's Q5 (section 5.3) and four more
-- shapes NEST-JA2 handles the same way.
-- Expected: warning NQ002 (non-equality-correlation) on every inner block:
-- grouping SUPPLY by its own PNUM keys the groups by the wrong side when
-- the correlation is a range comparison; NEST-JA2 groups a theta-joined
-- temporary by the outer column instead.  The two COUNT blocks also get
-- warning NQ001 (count-bug-susceptible); NEST-JA2's outer join makes
-- their rewrites correct.
-- Under the auto join choice each rewrite's grouped temporary is a
-- BandAgg (one pass over the inner); `nestsql check` certifies each rewrite.

-- Q5: MAX under <.
SELECT PNUM FROM PARTS WHERE QOH =
  (SELECT MAX(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM < PARTS.PNUM);

-- MIN under <=.
SELECT PNUM FROM PARTS WHERE QOH =
  (SELECT MIN(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM <= PARTS.PNUM);

-- COUNT under >=: a left-outer BandAgg, empty ranges count 0.
SELECT PNUM FROM PARTS WHERE QOH =
  (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM >= PARTS.PNUM);

-- COUNT(*) under >, counted over an inner column (section 5.2.1).
SELECT PNUM FROM PARTS WHERE QOH =
  (SELECT COUNT(*) FROM SUPPLY WHERE SUPPLY.PNUM > PARTS.PNUM);

-- An equality plus an inequality: a BandAgg segmented by PNUM.
SELECT PNUM FROM PARTS WHERE QOH =
  (SELECT MAX(QUAN) FROM SUPPLY
   WHERE SUPPLY.PNUM = PARTS.PNUM AND SUPPLY.QUAN < PARTS.QOH);
