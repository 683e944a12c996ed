/* Native loops of topiccf, each the twin of a Python oracle with the same bits.
 * Python reaches them only through topiccf.lda.load_kernels, which compiles and
 * loads this file once per process. The Python function that holds a loop's twin
 * calls the loop, or runs the twin where the library does not load.
 *
 * topiccf_gibbs_sweep is one collapsed Gibbs sweep over a flat token stream,
 * the twin of topiccf.lda._sweep_python: the arithmetic and its order are the
 * Python sweep's. Build it without -ffast-math and with -ffp-contract=off: a
 * fused multiply-add in the topic weight would round differently.
 *
 * topiccf_log and topiccf_exp map libm's log and exp over an array, the twins
 * of mapping math.log and math.exp, which call the same libm functions. Link
 * libm after this source; -ffast-math would let the compiler call other
 * (vector) versions of them.
 *
 * topiccf_co_counts adds 1 to out[c] for each column c of the given rows of a
 * CSR array, row after row: the co-ratings of an LLR row or an item-LLR column.
 * Its twin is the np.bincount in topiccf.similarity._co_counts. Integer counts
 * only, so no rounding can differ.
 *
 * topiccf_write_ratings writes one block's csv rows ``user,item,<rating text>[,timestamp]``,
 * each ending in a newline, into out and returns their length. Its twin, in
 * topiccf.ingest._csv_rows, formats them row by row. A rating's text is copied
 * from reprs, where Python's repr wrote it, so no float is formatted here; ids
 * and timestamps are int64 in decimal, INT64_MIN included.
 *
 * topiccf_parse_dat reads a MovieLens text, lines ID::ID::RATING::ID each ending
 * in a newline (empty lines skipped, the last newline optional), into columns:
 * the twin of topiccf.ingest._parse_columns' loadtxt branch. An ID is
 * -?[0-9]{1,18}, so no int64 overflows; a RATING is [0-9]+(\.[0-9]+)? of at most
 * 15 digits, and its value m / 10^f divides two exact doubles, so IEEE rounds it
 * as Python's float() does. Any other text, or a rating outside [1, 5], makes it
 * return -1 and leaves the file to the twin, then to the line parser.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

void topiccf_gibbs_sweep(long n, int T, const int32_t *words, const int32_t *doc_of,
                         int32_t *z, int32_t *n_dt, int32_t *n_wt, int32_t *n_t,
                         const double *u, double alpha, double beta, double vbeta,
                         double *cum)
{
    for (long i = 0; i < n; i++) {
        int32_t *row = n_dt + (long)doc_of[i] * T;
        int32_t *rw = n_wt + (long)words[i] * T;
        int t_old = z[i];
        row[t_old]--;
        rw[t_old]--;
        n_t[t_old]--;
        double total = 0.0;
        for (int t = 0; t < T; t++) {
            total += (row[t] + alpha) * (rw[t] + beta) / (n_t[t] + vbeta);
            cum[t] = total;
        }
        double r = u[i] * total;
        int t_new = 0;
        while (t_new < T - 1 && cum[t_new] < r)
            t_new++;
        z[i] = t_new;
        row[t_new]++;
        rw[t_new]++;
        n_t[t_new]++;
    }
}

void topiccf_log(long n, const double *x, double *out)
{
    for (long i = 0; i < n; i++)
        out[i] = log(x[i]);
}

void topiccf_exp(long n, const double *x, double *out)
{
    for (long i = 0; i < n; i++)
        out[i] = exp(x[i]);
}

void topiccf_co_counts(long n, const int32_t *rows, const int32_t *ptr, const int32_t *cols,
                       int64_t *out)
{
    for (long r = 0; r < n; r++)
        for (int32_t k = ptr[rows[r]]; k < ptr[rows[r] + 1]; k++)
            out[cols[k]]++;
}

static char *put_int64(char *p, int64_t v)
{
    char digits[20];
    uint64_t rest = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;  /* INT64_MIN too */
    int k = 0;
    if (v < 0)
        *p++ = '-';
    do {
        digits[k++] = (char)('0' + rest % 10);
        rest /= 10;
    } while (rest);
    while (k)
        *p++ = digits[--k];
    return p;
}

/* Row r's rating text is reprs[reprs_ptr[code[r]]:reprs_ptr[code[r] + 1]]; out must
 * hold n rows of up to 64 bytes plus the longest text. */
long topiccf_write_ratings(long n, const int64_t *user, const int64_t *item,
                           const int64_t *code, const uint8_t *reprs, const int64_t *reprs_ptr,
                           const int64_t *stamp, const uint8_t *stamped, uint8_t *out)
{
    char *p = (char *)out;
    for (long r = 0; r < n; r++) {
        p = put_int64(p, user[r]);
        *p++ = ',';
        p = put_int64(p, item[r]);
        *p++ = ',';
        int64_t start = reprs_ptr[code[r]], len = reprs_ptr[code[r] + 1] - start;
        memcpy(p, reprs + start, (size_t)len);
        p += len;
        if (stamped[r]) {
            *p++ = ',';
            p = put_int64(p, stamp[r]);
        }
        *p++ = '\n';
    }
    return (long)(p - (char *)out);
}

/* The decimal digits at p appended to *v and counted in *k; NULL where there is none,
 * or one past max in all, and for a NULL p. */
static const uint8_t *digits(const uint8_t *p, const uint8_t *end, int64_t *v, int *k, int max)
{
    const uint8_t *start = p;
    for (; p && p < end && *p >= '0' && *p <= '9'; p++, ++*k) {
        if (*k == max)
            return NULL;
        *v = *v * 10 + (*p - '0');
    }
    return p == start ? NULL : p;
}

static const uint8_t *parse_id(const uint8_t *p, const uint8_t *end, int64_t *out)
{
    int neg = p && p < end && *p == '-', k = 0;
    int64_t v = 0;
    p = digits(neg ? p + 1 : p, end, &v, &k, 18);
    *out = neg ? -v : v;
    return p;
}

static const uint8_t *parse_rating(const uint8_t *p, const uint8_t *end, double *out)
{
    static const double pow10[] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7,
                                   1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14};
    int64_t m = 0;
    int k = 0;
    p = digits(p, end, &m, &k, 15);
    int whole = k;
    if (p && p < end && *p == '.')
        p = digits(p + 1, end, &m, &k, 15);
    *out = (double)m / pow10[k - whole];
    return p;
}

static const uint8_t *colons(const uint8_t *p, const uint8_t *end)
{
    return p && end - p >= 2 && p[0] == ':' && p[1] == ':' ? p + 2 : NULL;
}

/* The rows of text[0:n] go to the first entries of the columns, which hold cap. */
long topiccf_parse_dat(long n, const uint8_t *text, long cap, int64_t *user, int64_t *item,
                       double *rating, int64_t *stamp)
{
    const uint8_t *p = text, *end = text + n;
    long rows = 0;
    while (p < end) {
        if (*p == '\n') {
            p++;
            continue;
        }
        if (rows == cap)
            return -1;
        p = colons(parse_id(p, end, &user[rows]), end);
        p = colons(parse_id(p, end, &item[rows]), end);
        p = colons(parse_rating(p, end, &rating[rows]), end);
        p = parse_id(p, end, &stamp[rows]);
        if (!p || !(rating[rows] >= 1.0 && rating[rows] <= 5.0) || (p < end && *p++ != '\n'))
            return -1;
        rows++;
    }
    return rows;
}
