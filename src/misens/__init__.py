"""Design of piecewise-affine multi-model inferential (soft) sensors.

Subpackages:
  core      domain types (datasets, labelings, switching logic, sensors)
  linalg    dense QR / Cholesky / least-squares kernels
  lp        bounded-variable dual simplex
  qp        dual active-set strictly convex quadratic programming (MIS-std's SVMs)
  milp      branch-and-bound over binary variables
  classify  k-means labeling and one-vs-one linear SVM
  design    SIS / MIS-std / MIS-con / MIS-con-lab sensor design
  study     pressure-compensated-temperature case-study harness
  cli       command-line front end
"""

__version__ = "0.1.0"
