/* Compiled twin of sincsum._kernels_py.
 *
 * Same algorithms, same summation order, same Kahan steps and the same
 * guards: the same floating-point operations in the same order, though not
 * statement for statement.  The pure twin sums the lattice sum's central
 * terms in one plain loop with sinc's plain branch written in line where it
 * holds, and writes out zeta_em's eight leading terms and eight corrections
 * in line; the operations and their order are these.
 * power_sum_fixed, power_sum_zeta, power_sum_routes and power_sum_deriv are
 * each a straight composition of the same pieces, and none calls another:
 * sines (sinc(x), sinc(x - 1) and sin(pi*x), signed, each sinc in its plain
 * branch in line where it applies, and the prefactor), heads (the m = 0
 * term, the m = -1 term and the prefactor, taken from sines), em_factors,
 * hurwitz_pair (the closed form's zeta pair), and direct and closed_form,
 * which finish each route with zeta_em_f; closed_form owns the endpoint
 * rule.  So power_sum_routes returns both routes bit for bit in one pass,
 * with the heads, the prefactor and the eight Euler-Maclaurin factors formed
 * once.  power_sum_deriv adds to sines and hurwitz_pair only its own parts:
 * dsinc, cos(pi*x), head_deriv and the prefactor's derivative.
 * Keep the two files in lockstep: tests/test_backends.py compares them for
 * exact equality.  A nan is the exception: the twins return a nan for the
 * same inputs, but not the same nan bits.  The sign and payload of a nan
 * are set by the platform (x86's default NaN is negative, AArch64's
 * positive), and the pure twin substitutes math.nan where Python raises.
 * Both call the platform libm (sin, cos, exp, log, pow), and contraction
 * into fused multiply-adds is switched off below, so every operation
 * rounds exactly as the matching Python float operation does.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

static const double PI = 3.141592653589793;
static const double LOG_PI = 1.1447298858494002; /* math.log(math.pi) */

/* B_{2j}/(2j)! for j = 1..8 and the |B_18|/18! remainder gauge. */
static const double EM_COEF[8] = {
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
    -691.0 / 1307674368000.0,
    1.0 / 74724249600.0,
    -3617.0 / 10670622842880000.0,
};
static const double EM_NEXT = 43867.0 / 5109094217170944000.0;

static const double FLOAT_SLACK = 1e-14;

/* The two rules every lattice-sum term is built from: sinc_d takes its
 * Taylor polynomial below |x| = SERIES_SWITCH, and no x + m rounds onto an
 * integer for |m| < 2^20 where x and 1 - x are both at least ROUND_MARGIN
 * (rounding moves x + m below 2^20 by at most 2^-34). */
static const double SERIES_SWITCH = 1e-4;
static const double ROUND_MARGIN = 1e-9;

/* sinc'(x) = pi^2 x G((pi x)^2), G(u) = sum_k (-1)^k 2k u^(k-1)/(2k+1)!. */
static const double DSINC_COEF[8] = {
    -1.0 / 3.0,
    1.0 / 30.0,
    -1.0 / 840.0,
    1.0 / 45360.0,
    -1.0 / 3991680.0,
    1.0 / 518918400.0,
    -7.0 / 653837184000.0,
    1.0 / 22230464256000.0,
};

/* A (value, bound) pair: zeta_em's (value, gauge), power_sum_fixed's
 * (value, tail_bound). */
typedef struct {
    double value, bound;
} pair;

static double
sinc_d(double x)
{
    double t, u;
    if (fabs(x) < SERIES_SWITCH) {
        t = PI * x;
        u = t * t;
        return 1.0 - u / 6.0 + (u * u) / 120.0;
    }
    if (x == floor(x))
        return 0.0; /* sin(pi*m) is exactly 0 at integers; libm's is not */
    t = PI * x;
    return sin(t) / t;
}

static double
dsinc_d(double x)
{
    double u, g;
    int k;
    if (fabs(x) < 0.125) {
        u = (PI * x) * (PI * x);
        g = DSINC_COEF[7];
        for (k = 6; k >= 0; k--)
            g = g * u + DSINC_COEF[k];
        return PI * PI * x * g;
    }
    return (cos(PI * x) - sinc_d(x)) / x;
}

/* The eight factors (s + 2j - 1)(s + 2j), j = 1..8, by which each
 * Euler-Maclaurin correction is carried to the next.  They depend on s
 * alone, so a kernel that sums several Hurwitz zeta values at one s forms
 * them once. */
static void
em_factors(double s, double f[8])
{
    int j;
    for (j = 1; j <= 8; j++)
        f[j - 1] = (s + 2.0 * j - 1.0) * (s + 2.0 * j);
}

/* Hurwitz zeta (value, gauge) by one Euler-Maclaurin pass after n leading
 * terms, given f = em_factors(s): n = 0 when a >= 8, else n = 8, so that
 * w = n + a >= 8, where the gauge is below 4.6e-16 for every s > 1.  Where
 * w^-s underflows to 0 the leading sum is returned with gauge 0. */
static pair
zeta_em_f(double s, double a, const double f[8])
{
    int n = a >= 8.0 ? 0 : 8;
    int k, j;
    double w = n + a, acc = 0.0, c = 0.0, term, y, t, base, total, w2, g, corr;
    for (k = n - 1; k >= 0; k--) {
        term = pow(k + a, -s);
        y = term - c;
        t = acc + y;
        c = (t - acc) - y;
        acc = t;
    }
    base = pow(w, -s);
    if (base == 0.0)
        return (pair){acc, 0.0}; /* the factors below would overflow: 0 * inf */
    total = acc + base * w / (s - 1.0) + 0.5 * base;
    w2 = w * w;
    g = base * s / w;
    corr = 0.0;
    for (j = 0; j < 8; j++) {
        corr += EM_COEF[j] * g;
        g *= f[j] / w2;
    }
    return (pair){total + corr, EM_NEXT * g};
}

/* |u|^s via exp(s*log|u|); exactly 0 when u is. */
static double
abs_pow(double u, double s)
{
    return u == 0.0 ? 0.0 : exp(s * log(fabs(u)));
}

/* sinc(x), signed; *v gets sinc(x - 1) and *sp sin(pi*x), signed, *ls
 * log|sin(pi*x)| and *pref the prefactor (|sin(pi*x)|/pi)^s, which is
 * exp(s*(-inf)) where sin(pi*x) is 0.  Each sinc is sinc_d's plain branch
 * in line where sinc_d takes it: SERIES_SWITCH <= x < 1 for sinc(x), which
 * then shares sin(pi*x) with *sp, and for sinc(x - 1) x >= ROUND_MARGIN
 * (x - 1 is no integer) and 1 - x >= SERIES_SWITCH (the switch at the
 * argument x - 1).  The lattice-sum kernels and the derivative take these
 * from here. */
static double
sines(double s, double x, double *v, double *sp, double *ls, double *pref)
{
    double t = PI * x, u;
    *sp = sin(t);
    u = SERIES_SWITCH <= x && x < 1.0 ? *sp / t : sinc_d(x);
    t = PI * (x - 1.0);
    *v = x >= ROUND_MARGIN && 1.0 - x >= SERIES_SWITCH ? sin(t) / t : sinc_d(x - 1.0);
    *ls = log(fabs(*sp));
    *pref = exp(s * (*ls - LOG_PI));
    return u;
}

/* The m = 0 term |sinc(x)|^s; *neighbour gets the m = -1 term
 * |sinc(x - 1)|^s and *pref the prefactor, 0.0 where sin(pi*x) is.  Both
 * routes take all three from here. */
static double
heads(double s, double x, double *neighbour, double *pref)
{
    double v, sp, ls, u = sines(s, x, &v, &sp, &ls, pref);
    *pref = sp == 0.0 ? 0.0 : *pref;
    *neighbour = abs_pow(v, s);
    return abs_pow(u, s);
}

/* z[0] = zeta(s, 1 + x) and z[1] = zeta(s, 2 - x), given f = em_factors(s):
 * the closed form's Hurwitz zeta pair. */
static void
hurwitz_pair(double s, double x, const double f[8], double z[2])
{
    z[0] = zeta_em_f(s, 1.0 + x, f).value;
    z[1] = zeta_em_f(s, 2.0 - x, f).value;
}

/* The direct route's (value, tail bound), given heads' terms and pref and
 * f = em_factors(s): the central terms 0 < |m| <= m_terms Kahan-summed,
 * largest |m| first, with the m = -1 term neighbour in its place, then the
 * m = 0 term head, then the two analytic tails past m_terms. */
static pair
direct(double s, double x, long m_terms, double head, double neighbour,
       double pref, const double f[8])
{
    double acc = 0.0, comp = 0.0, term, y, t, xm[2];
    pair zr, zl;
    long k;
    int i;
    for (k = m_terms; k > 0; k--) {
        xm[0] = x + k;
        xm[1] = x - k;
        for (i = 0; i < 2; i++) {
            term = k == 1 && i == 1 ? neighbour : abs_pow(sinc_d(xm[i]), s);
            if (term != 0.0) {
                y = term - comp;
                t = acc + y;
                comp = (t - acc) - y;
                acc = t;
            }
        }
    }
    acc = acc + (head - comp);
    if (pref == 0.0)
        return (pair){acc, FLOAT_SLACK};
    zr = zeta_em_f(s, m_terms + 1.0 + x, f);
    zl = zeta_em_f(s, m_terms + 1.0 - x, f);
    return (pair){acc + pref * (zr.value + zl.value),
                  pref * (zr.bound + zl.bound) + FLOAT_SLACK};
}

/* The closed-form route, given heads' terms and pref and f = em_factors(s);
 * the continuous value 1 at the endpoints and outside them. */
static double
closed_form(double s, double x, double head, double neighbour, double pref,
            const double f[8])
{
    double z[2];
    if (x <= 0.0 || x >= 1.0)
        return 1.0;
    head = head + neighbour;
    if (pref == 0.0)
        return head;
    hurwitz_pair(s, x, f, z);
    return head + pref * (z[0] + z[1]);
}

static pair
power_sum_fixed_d(double r, double x, long m_terms)
{
    double s = 2.0 * r, neighbour, pref, head, f[8];
    head = heads(s, x, &neighbour, &pref);
    em_factors(s, f);
    return direct(s, x, m_terms, head, neighbour, pref, f);
}

static double
power_sum_zeta_d(double r, double x)
{
    double s = 2.0 * r, neighbour, pref, head, f[8];
    head = heads(s, x, &neighbour, &pref);
    em_factors(s, f);
    return closed_form(s, x, head, neighbour, pref, f);
}

/* (power_sum_fixed, tail bound, power_sum_zeta) in one pass: the routes
 * share heads' terms and prefactor, and the four Hurwitz zeta sums share one
 * set of factors. */
static void
power_sum_routes_d(double r, double x, long m_terms, double out[3])
{
    double s = 2.0 * r, neighbour, pref, head, f[8];
    pair p;
    head = heads(s, x, &neighbour, &pref);
    em_factors(s, f);
    p = direct(s, x, m_terms, head, neighbour, pref, f);
    out[0] = p.value;
    out[1] = p.bound;
    out[2] = closed_form(s, x, head, neighbour, pref, f);
}

/* d/dx u^s = s u^(s-1) u'; 0 where u vanishes, since s - 1 > 0. */
static double
head_deriv(double u, double du, double s)
{
    if (u == 0.0 && s > 1.0)
        return 0.0;
    return s * exp((s - 1.0) * log(u)) * du;
}

/* d/dx of the closed form, with sines' sinc values, log and prefactor; the
 * log of sin(pi*x) is sines' log|sin(pi*x)| where sin(pi*x) > 0, and log's
 * own -inf or nan elsewhere. */
static double
power_sum_deriv_d(double r, double x)
{
    double s = 2.0 * r, v, sp, ls, pref, u = sines(s, x, &v, &sp, &ls, &pref);
    double d_head = head_deriv(u, dsinc_d(x), s) + head_deriv(v, dsinc_d(x - 1.0), s);
    double d_pref = s * PI * cos(PI * x)
                    * exp((s - 1.0) * (sp > 0.0 ? ls : log(sp)) - s * LOG_PI);
    double f[8], z[2], dz[2];
    em_factors(s, f);
    hurwitz_pair(s, x, f, z);
    em_factors(s + 1.0, f);
    hurwitz_pair(s + 1.0, x, f, dz);
    return d_head + d_pref * (z[0] + z[1]) + pref * s * (dz[1] - dz[0]);
}

/* ---- Python wrappers ------------------------------------------------- */

/* Convert exactly n positional float arguments; 0 on success, -1 with an
 * exception set otherwise. */
static int
float_args(const char *name, PyObject *const *args, Py_ssize_t nargs,
           Py_ssize_t n, double *out)
{
    Py_ssize_t i;
    if (nargs != n) {
        PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd arguments (%zd given)",
                     name, n, nargs);
        return -1;
    }
    for (i = 0; i < n; i++) {
        out[i] = PyFloat_AsDouble(args[i]);
        if (out[i] == -1.0 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* (r, x, m_terms) with an int m_terms >= 0; 0 on success, -1 with an
 * exception set otherwise. */
static int
routes_args(const char *name, PyObject *const *args, Py_ssize_t nargs,
            double *a, long *m_terms)
{
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "%s() takes exactly 3 arguments (%zd given)",
                     name, nargs);
        return -1;
    }
    if (float_args(name, args, 2, 2, a) < 0)
        return -1;
    *m_terms = PyLong_AsLong(args[2]);
    if (*m_terms == -1 && PyErr_Occurred())
        return -1;
    if (*m_terms < 0) {
        PyErr_Format(PyExc_ValueError, "m_terms must be >= 0, got %ld", *m_terms);
        return -1;
    }
    return 0;
}

static PyObject *
float_tuple(Py_ssize_t n, const double *v)
{
    PyObject *t = PyTuple_New(n), *f;
    Py_ssize_t i;
    for (i = 0; t != NULL && i < n; i++) {
        f = PyFloat_FromDouble(v[i]);
        if (f == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, f);
    }
    return t;
}

static PyObject *
pair_tuple(pair p)
{
    double v[2] = {p.value, p.bound};
    return float_tuple(2, v);
}

static PyObject *
py_backend_name(PyObject *self, PyObject *unused)
{
    return PyUnicode_FromString("compiled");
}

static PyObject *
py_sinc(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double a[1];
    if (float_args("sinc", args, nargs, 1, a) < 0)
        return NULL;
    return PyFloat_FromDouble(sinc_d(a[0]));
}

static PyObject *
py_sinc_sq(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double a[1], s;
    if (float_args("sinc_sq", args, nargs, 1, a) < 0)
        return NULL;
    s = sinc_d(a[0]);
    return PyFloat_FromDouble(s * s);
}

static PyObject *
py_dsinc(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double a[1];
    if (float_args("dsinc", args, nargs, 1, a) < 0)
        return NULL;
    return PyFloat_FromDouble(dsinc_d(a[0]));
}

static PyObject *
py_zeta_em(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double a[2], f[8];
    if (float_args("zeta_em", args, nargs, 2, a) < 0)
        return NULL;
    em_factors(a[0], f);
    return pair_tuple(zeta_em_f(a[0], a[1], f));
}

static PyObject *
py_power_sum_fixed(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double a[2];
    long m_terms;
    if (routes_args("power_sum_fixed", args, nargs, a, &m_terms) < 0)
        return NULL;
    return pair_tuple(power_sum_fixed_d(a[0], a[1], m_terms));
}

static PyObject *
py_power_sum_routes(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double a[2], out[3];
    long m_terms;
    if (routes_args("power_sum_routes", args, nargs, a, &m_terms) < 0)
        return NULL;
    power_sum_routes_d(a[0], a[1], m_terms, out);
    return float_tuple(3, out);
}

static PyObject *
py_power_sum_zeta(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double a[2];
    if (float_args("power_sum_zeta", args, nargs, 2, a) < 0)
        return NULL;
    return PyFloat_FromDouble(power_sum_zeta_d(a[0], a[1]));
}

static PyObject *
py_power_sum_deriv(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double a[2];
    if (float_args("power_sum_deriv", args, nargs, 2, a) < 0)
        return NULL;
    return PyFloat_FromDouble(power_sum_deriv_d(a[0], a[1]));
}

#define FASTCALL(name, doc) \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, doc}

static PyMethodDef methods[] = {
    {"backend_name", py_backend_name, METH_NOARGS, "The string 'compiled'."},
    FASTCALL(sinc, "sin(pi*x)/(pi*x) with the removable singularity filled in."),
    FASTCALL(sinc_sq, "sinc(x)**2, the translate kernel of the power sum."),
    FASTCALL(dsinc, "Derivative of the normalized sinc."),
    FASTCALL(zeta_em, "Hurwitz zeta (value, gauge) by Euler-Maclaurin."),
    FASTCALL(power_sum_fixed, "(value, tail_bound) from 2*m_terms+1 terms plus tails."),
    FASTCALL(power_sum_zeta, "Closed-form route: prefactor times Hurwitz zeta values."),
    FASTCALL(power_sum_routes, "(*power_sum_fixed, power_sum_zeta) in one pass."),
    FASTCALL(power_sum_deriv, "d/dx of the power sum via the closed form, x in (0,1)."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernels_c",
    "Compiled twin of sincsum._kernels_py (same algorithms, bit for bit).",
    -1, methods,
};

PyMODINIT_FUNC
PyInit__kernels_c(void)
{
    PyObject *m = PyModule_Create(&module);
    PyObject *slack = m ? PyFloat_FromDouble(FLOAT_SLACK) : NULL;
    int rc = slack ? PyModule_AddObjectRef(m, "FLOAT_SLACK", slack) : -1;
    Py_XDECREF(slack);
    if (rc < 0) {
        Py_XDECREF(m);
        return NULL;
    }
    return m;
}
