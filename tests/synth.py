"""Randomized instance generators shared across test modules."""
import numpy as np

from topiccf.ingest import RatingDataset, RatingRecord
from topiccf.persona import UserPersona


def random_dataset(rng, max_users=10, max_items=15, rating_choices=(1.0, 2.0, 3.0, 4.0, 5.0),
                   density=0.45):
    """Random small RatingDataset. Every user gets at least one rating."""
    n_users = int(rng.integers(2, max_users + 1))
    n_items = int(rng.integers(3, max_items + 1))
    records = []
    for u in range(1, n_users + 1):
        items = [i for i in range(1, n_items + 1) if rng.random() < density]
        if not items:
            items = [int(rng.integers(1, n_items + 1))]
        for i in items:
            records.append(RatingRecord(u, i, float(rng.choice(rating_choices))))
    return RatingDataset(records)


def random_personas(rng, users, n_topics=3, undefined_fraction=0.0):
    """Dirichlet personas; a random subset can be left undefined."""
    personas = {}
    for u in users:
        if rng.random() < undefined_fraction:
            personas[u] = UserPersona(u, None, documented_item_count=0)
        else:
            personas[u] = UserPersona(
                u, rng.dirichlet(np.ones(n_topics)), documented_item_count=1
            )
    return personas


def desk_instance(seed=1, n_users=120, n_items=640, n_topics=50, density=0.05):
    """A desk-scale train set (users 1..n_users, about ``density`` of the items
    each, every user at least one) and 50-topic Dirichlet personas for it, a
    tenth of them undefined and the last user's missing."""
    rng = np.random.default_rng(seed)
    rated = rng.random((n_users, n_items)) < density
    rated[np.arange(n_users), rng.integers(0, n_items, n_users)] = True
    users, items = np.nonzero(rated)
    ratings = rng.integers(1, 6, len(users)).astype(float)
    train = RatingDataset(map(RatingRecord, (users + 1).tolist(), (items + 1).tolist(),
                              ratings.tolist()))
    personas = random_personas(rng, train.users(), n_topics=n_topics, undefined_fraction=0.1)
    del personas[n_users]
    return train, personas
